package mcdbr_test

// Concurrency regression tests for the shared Engine: run with -race.
// Before the engine-level locks, maybeRegisterFTable mutated the shared
// catalog mid-Exec and random-table definitions lived in an unsynchronized
// map, so two concurrent Execs raced and corrupted state.

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/types"
	"repro/internal/vg"
	"repro/internal/workload"
	"repro/mcdbr"
)

const hammerMCSQL = `SELECT SUM(val) AS totalLoss FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(40)`

// TestConcurrentExecHammer drives one shared engine from many goroutines
// mixing Exec, Prepare-ed runs, Explain, scalar queries, and DDL — the
// ISSUE 3 acceptance scenario (>= 8 goroutines).
func TestConcurrentExecHammer(t *testing.T) {
	e := lossEngine(t, 2)
	want, err := e.Exec(hammerMCSQL)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	const iters = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch g % 6 {
				case 0: // plain Exec; deterministic, so compare to the baseline
					res, err := e.Exec(hammerMCSQL)
					if err != nil {
						errc <- err
						return
					}
					for j := range want.Dist.Samples {
						if res.Dist.Samples[j] != want.Dist.Samples[j] {
							t.Errorf("goroutine %d: sample %d diverged under concurrency", g, j)
							return
						}
					}
				case 1: // prepared runs with per-run seeds
					pq, err := e.Prepare(hammerMCSQL)
					if err != nil {
						errc <- err
						return
					}
					if _, err := pq.Run(mcdbr.RunOptions{Seed: uint64(g*100 + i + 1)}); err != nil {
						errc <- err
						return
					}
				case 2: // EXPLAIN
					if _, err := e.Explain(hammerMCSQL); err != nil {
						errc <- err
						return
					}
				case 3: // deterministic scalar over the parameter table
					if _, err := e.Exec(`SELECT COUNT(*) FROM means`); err != nil {
						errc <- err
						return
					}
				case 4: // DDL: (re)define a goroutine-private random table
					err := e.DefineRandomTable(mcdbr.RandomTable{
						Name: "scratch", ParamTable: "means", VG: "Normal",
						VGParams: []expr.Expr{expr.C("m"), expr.F(2.0)},
						Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "v", VGOut: 0}},
					})
					if err != nil {
						errc <- err
						return
					}
				case 5: // catalog reads
					if _, ok := e.Table("means"); !ok {
						t.Error("means table vanished")
						return
					}
					e.RandomTableNames()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentFTableRegistration is the regression test for the
// maybeRegisterFTable catalog-mutation race: goroutines hammer the same
// engine with FREQUENCYTABLE queries while others issue follow-up scalar
// queries over FTABLE. Registration must be atomic — a follow-up sees a
// complete FTABLE (or none at all), never a partial one.
func TestConcurrentFTableRegistration(t *testing.T) {
	e := lossEngine(t, 1)
	const ftSQL = `SELECT SUM(val) AS totalLoss FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(25)
FREQUENCYTABLE totalLoss`
	if _, err := e.Exec(ftSQL); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if g%2 == 0 {
					if _, err := e.Exec(ftSQL); err != nil {
						errc <- err
						return
					}
					continue
				}
				res, err := e.Exec(`SELECT SUM(totalLoss * frac) FROM FTABLE`)
				if err != nil {
					errc <- err
					return
				}
				// A complete FTABLE's fracs sum to 1, so the weighted sum is
				// a finite expected value; a torn registration would break
				// this.
				if math.IsNaN(res.Scalar) || math.IsInf(res.Scalar, 0) {
					t.Errorf("weighted FTABLE sum is %g", res.Scalar)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// panicVG is a user VG function that panics on every invocation.
type panicVG struct{}

func (panicVG) Name() string           { return "PanicVG" }
func (panicVG) Arity() int             { return 1 }
func (panicVG) OutKinds() []types.Kind { return []types.Kind{types.KindFloat} }
func (panicVG) Generate(params []types.Value, sub *prng.Sub) ([]types.Value, error) {
	panic("panicVG: deliberate test panic")
}

// nanVG always generates NaN, poisoning the Monte Carlo outputs.
type nanVG struct{}

func (nanVG) Name() string           { return "NaNVG" }
func (nanVG) Arity() int             { return 1 }
func (nanVG) OutKinds() []types.Kind { return []types.Kind{types.KindFloat} }
func (nanVG) Generate(params []types.Value, sub *prng.Sub) ([]types.Value, error) {
	return []types.Value{types.NewFloat(math.NaN())}, nil
}

func vgEngine(t *testing.T, f vg.Func, workers int) *mcdbr.Engine {
	t.Helper()
	e := mcdbr.New(mcdbr.WithSeed(7), mcdbr.WithParallelism(workers))
	e.RegisterVG(f)
	e.RegisterTable(workload.LossMeans(20, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "bad", ParamTable: "means", VG: f.Name(),
		VGParams: []expr.Expr{expr.C("m")},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExecPanicBecomesError: a panicking VG function must surface as an
// error from Exec — sequentially and through the replicate-sharded worker
// goroutines — never crash the process.
func TestExecPanicBecomesError(t *testing.T) {
	const sql = `SELECT SUM(val) AS x FROM bad WITH RESULTDISTRIBUTION MONTECARLO(30)`
	for _, workers := range []int{1, 4} {
		e := vgEngine(t, panicVG{}, workers)
		res, err := e.Exec(sql)
		if err == nil {
			t.Fatalf("workers=%d: expected error, got %+v", workers, res)
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Fatalf("workers=%d: error does not mention the panic: %v", workers, err)
		}
	}
}

// TestPreparedRunPanicBecomesError covers the prepared path.
func TestPreparedRunPanicBecomesError(t *testing.T) {
	e := vgEngine(t, panicVG{}, 2)
	pq, err := e.Prepare(`SELECT SUM(val) AS x FROM bad WITH RESULTDISTRIBUTION MONTECARLO(30)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Run(mcdbr.RunOptions{}); err == nil {
		t.Fatal("expected error from prepared run of a panicking VG")
	}
}

// TestNaNResultsRejected: NaN Monte Carlo outputs must be reported as a
// descriptive error instead of silently corrupting quantile and
// tail-boundary estimates (they sort to the front of the ECDF).
func TestNaNResultsRejected(t *testing.T) {
	e := vgEngine(t, nanVG{}, 1)
	for _, sql := range []string{
		`SELECT SUM(val) AS x FROM bad WITH RESULTDISTRIBUTION MONTECARLO(20)`,
		`SELECT SUM(val) AS x FROM bad WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.01 AT 95%, MAX 200)`,
	} {
		_, err := e.Exec(sql)
		if err == nil {
			t.Fatalf("%s: expected non-finite-result error", sql)
		}
		if !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("error does not name NaN: %v", err)
		}
		if !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("error is not descriptive: %v", err)
		}
		// No GROUP BY: the message must not name an (empty) group.
		if strings.Contains(err.Error(), "group ") {
			t.Fatalf("ungrouped error names a group: %v", err)
		}
	}
}

// TestNaNTailRejected covers the tail-sampling path: fixed, adaptive and
// grouped DOMAIN runs all fail descriptively, and only the grouped error
// names a group.
func TestNaNTailRejected(t *testing.T) {
	e := vgEngine(t, nanVG{}, 1)
	for _, tc := range []struct {
		name, sql string
		grouped   bool
	}{
		{"fixed", `SELECT SUM(val) AS x FROM bad
WITH RESULTDISTRIBUTION MONTECARLO(10)
DOMAIN x >= QUANTILE(0.9)`, false},
		{"until", `SELECT SUM(val) AS x FROM bad
WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.01 AT 95%, MAX 40)
DOMAIN x >= QUANTILE(0.9)`, false},
		{"grouped", `SELECT SUM(val) AS x FROM bad GROUP BY cid
WITH RESULTDISTRIBUTION MONTECARLO(10)
DOMAIN x >= QUANTILE(0.9)`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.ExecWithOptions(tc.sql, mcdbr.TailSampleOptions{TotalSamples: 60})
			if err == nil {
				t.Fatal("expected non-finite-result error from tail sampling")
			}
			if !strings.Contains(err.Error(), "NaN") && !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("error not descriptive: %v", err)
			}
			if named := strings.Contains(err.Error(), "group "); named != tc.grouped {
				t.Fatalf("error names a group = %v, want %v: %v", named, tc.grouped, err)
			}
		})
	}
}

// TestConcurrentMixedWithTail exercises the full acceptance mix with
// NumCPU-bounded goroutine count to keep -race runtime sane.
func TestConcurrentMixedWithTail(t *testing.T) {
	if testing.Short() {
		t.Skip("tail sampling under -race is slow")
	}
	e := lossEngine(t, runtime.NumCPU())
	const tailSQL = `SELECT SUM(val) AS totalLoss FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(20)
DOMAIN totalLoss >= QUANTILE(0.9)`
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if _, err := e.ExecWithOptions(tailSQL, mcdbr.TailSampleOptions{TotalSamples: 80}); err != nil {
					errc <- err
				}
				return
			}
			pq, err := e.Prepare(hammerMCSQL)
			if err != nil {
				errc <- err
				return
			}
			if _, err := pq.Run(mcdbr.RunOptions{Seed: uint64(g)}); err != nil {
				errc <- err
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
