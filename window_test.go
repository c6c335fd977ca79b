package repro_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/mcdbr"
)

// tailFingerprint is everything a tail query reports that must not depend
// on how many stream values the plan run materializes: the samples, the
// quantile estimate, and every iteration's candidate, accept and give-up
// counts, as exact bit patterns.
func tailFingerprint(tr *mcdbr.TailResult) []string {
	var out []string
	for _, s := range tr.Samples {
		out = append(out, fmt.Sprintf("%016x", math.Float64bits(s)))
	}
	out = append(out, fmt.Sprintf("q=%016x", math.Float64bits(tr.QuantileEstimate)))
	for i, it := range tr.Diag.Iters {
		out = append(out, fmt.Sprintf("iter%d=%d/%d/%d", i, it.Candidates, it.Accepts, it.GiveUps))
	}
	return out
}

// windowCase is one tail statement of TestTailWindowIndependence. windows
// ascend; the smallest is small enough that the rejection sampler runs far
// past the materialized values (where the paper's §9 re-runs the plan
// many times over), the largest holds every candidate. The engine raises
// a window below N+L to N+L.
type windowCase struct {
	name    string
	engine  func(t *testing.T, opts ...mcdbr.Option) *mcdbr.Engine
	seed    uint64
	sql     string
	windows []int
}

func lossesEngine(t *testing.T, opts ...mcdbr.Option) *mcdbr.Engine {
	t.Helper()
	e := mcdbr.New(opts...)
	e.RegisterTable(workload.LossMeans(30, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func tpchEngine(t *testing.T, opts ...mcdbr.Option) *mcdbr.Engine {
	t.Helper()
	cfg := workload.TimingTPCH(4000)
	cfg.Seed = 3
	orders, lineitem, err := workload.TPCHLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := mcdbr.New(opts...)
	e.RegisterTable(orders)
	e.RegisterTable(lineitem)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "random_ord", ParamTable: "orders", VG: "Normal",
		VGParams: []expr.Expr{expr.C("o_mean"), expr.C("o_var")},
		Columns: []mcdbr.RandomCol{
			{Name: "o_orderkey", FromParam: "o_orderkey"},
			{Name: "o_yr", FromParam: "o_yr"},
			{Name: "val", VGOut: 0},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

var windowCases = []windowCase{
	{
		name:   "tpch",
		engine: tpchEngine,
		seed:   4,
		sql: `SELECT SUM(r.val) AS s FROM random_ord AS r, lineitem AS l
WHERE r.o_orderkey = l.l_orderkey AND (r.o_yr = 1994 OR r.o_yr = 1995)
WITH RESULTDISTRIBUTION MONTECARLO(40) DOMAIN s >= QUANTILE(0.99)`,
		windows: []int{64, 1024, 1 << 16},
	},
	{
		name:   "fig2_shared_seeds",
		engine: func(t *testing.T, opts ...mcdbr.Option) *mcdbr.Engine { return goldenSalaryEngine(t, 9e8, opts...) },
		seed:   4,
		sql: `SELECT SUM(emp2.sal - emp1.sal) AS inv
FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid AND emp2.sal > emp1.sal
WITH RESULTDISTRIBUTION MONTECARLO(40)
DOMAIN inv >= QUANTILE(0.95)`,
		windows: []int{64, 512, 1 << 16},
	},
	{
		// A random WHERE becomes presence bits below the looper. The
		// predicate is false for many tuples throughout a small window,
		// and such a tuple must still be there when a later stream
		// position makes it present. (Re-running the plan over a later
		// window, as §9 does, finds a different set of such tuples.)
		name:   "where_random",
		engine: lossesEngine,
		seed:   2,
		sql: `SELECT SUM(val) AS s FROM losses WHERE val > 10
WITH RESULTDISTRIBUTION MONTECARLO(40) DOMAIN s >= QUANTILE(0.99)`,
		windows: []int{64, 512, 1 << 16},
	},
}

// TestTailWindowIndependence: WithWindow sizes only the plan run's
// materialization. Samples, quantile and every rejection-sampling counter
// of a tail query are bit-identical across windows and worker counts.
func TestTailWindowIndependence(t *testing.T) {
	for _, tc := range windowCases {
		t.Run(tc.name, func(t *testing.T) {
			var want []string
			for _, window := range tc.windows {
				for _, workers := range []int{1, 2} {
					e := tc.engine(t, mcdbr.WithSeed(tc.seed), mcdbr.WithWindow(window), mcdbr.WithParallelism(workers))
					res, err := e.Exec(tc.sql)
					if err != nil {
						t.Fatalf("window=%d workers=%d: %v", window, workers, err)
					}
					got := tailFingerprint(res.Tail)
					if want == nil {
						want = got
						continue
					}
					if strings.Join(got, " ") != strings.Join(want, " ") {
						t.Fatalf("window=%d workers=%d:\n got %v\nwant %v (window=%d workers=1)", window, workers, got, want, tc.windows[0])
					}
				}
			}
		})
	}
}

// TestTailSplitValueOutsideWindow pins the Split hazard: a join on a
// random attribute enumerates the attribute's distinct values over the
// plan run's window. When the looper later draws a value that window
// never produced, the query must fail loudly, never drop the tuple.
func TestTailSplitValueOutsideWindow(t *testing.T) {
	engine := func(window int) *mcdbr.Engine {
		e := mcdbr.New(mcdbr.WithSeed(2), mcdbr.WithWindow(window), mcdbr.WithParallelism(1))
		rc := storage.NewTable("riskclass", types.NewSchema(
			types.Column{Name: "rid", Kind: types.KindFloat},
			types.Column{Name: "premium", Kind: types.KindFloat},
		))
		rc.MustAppend(types.Row{types.NewFloat(0), types.NewFloat(10)})
		rc.MustAppend(types.Row{types.NewFloat(1), types.NewFloat(1000)})
		e.RegisterTable(rc)
		cust := storage.NewTable("cust", types.NewSchema(types.Column{Name: "cid", Kind: types.KindInt}))
		for i := 0; i < 4; i++ {
			cust.MustAppend(types.Row{types.NewInt(int64(i))})
		}
		e.RegisterTable(cust)
		// Class 1 is drawn once in 200: a window of 32 rarely holds it,
		// one of 1<<14 always does.
		if err := e.DefineRandomTable(mcdbr.RandomTable{
			Name: "assignment", ParamTable: "cust", VG: "DiscreteChoice",
			VGParams: []expr.Expr{expr.F(0), expr.F(0.995), expr.F(1), expr.F(0.005)},
			Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "class", VGOut: 0}},
		}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	const sql = `SELECT SUM(r.premium) AS s FROM assignment AS a, riskclass AS r
WHERE a.class = r.rid
WITH RESULTDISTRIBUTION MONTECARLO(20) DOMAIN s >= QUANTILE(0.99)`
	if _, err := engine(32).Exec(sql); err == nil || !strings.Contains(err.Error(), "did not enumerate") {
		t.Fatalf("window 32: err = %v, want the Split's unenumerated-value error", err)
	}
	res, err := engine(1 << 14).Exec(sql)
	if err != nil {
		t.Fatalf("window 1<<14: %v", err)
	}
	for _, s := range res.Tail.Samples {
		if s < res.Tail.QuantileEstimate {
			t.Fatalf("sample %g below the quantile estimate %g", s, res.Tail.QuantileEstimate)
		}
	}
}
