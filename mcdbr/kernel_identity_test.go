package mcdbr_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/mcdbr"
)

// kernelEngine builds the grouped loss workload with explicit control
// over every execution knob the vectorized kernels must be invisible to:
// kernels on/off, worker count, batch size, and prefix cache. (The
// engine window is not one: plain Monte Carlo sizes its workspace window
// to the replicate count, so replenishing runs are covered by the
// internal/gibbs tests, which build their workspaces directly.)
func kernelEngine(t *testing.T, kernels bool, workers, batch, prefixCache int) *mcdbr.Engine {
	t.Helper()
	e := mcdbr.New(mcdbr.WithSeed(1234),
		mcdbr.WithParallelism(workers), mcdbr.WithBatchSize(batch),
		mcdbr.WithPrefixCacheSize(prefixCache), mcdbr.WithVectorizedKernels(kernels))
	means := workload.LossMeans(40, 2, 8, 5)
	e.RegisterTable(means)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	grp := storage.NewTable("grp", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindString},
	))
	for i, r := range means.Rows() {
		g := "a"
		if i%2 == 1 {
			g = "b"
		}
		grp.MustAppend(types.Row{r[0], types.NewString(g)})
	}
	e.RegisterTable(grp)
	return e
}

// kernelIdentityQueries cover the vectorized surfaces: a grouped
// multi-aggregate query with a random-attribute WHERE (Select presence
// vectors + the window-major EvalWindow pass), the same with a HAVING
// threshold that includes both groups in some replicates but not all
// (s ranges over about 84–121), and an ungrouped aggregate.
var kernelIdentityQueries = []struct{ name, sql string }{
	{"grouped", `SELECT SUM(l.val) AS s, AVG(l.val * 2.0 + 1.0) AS a2, COUNT(*) AS c
FROM losses l, grp grp WHERE l.cid = grp.cid AND l.val > 0.5
GROUP BY grp.g WITH RESULTDISTRIBUTION MONTECARLO(201)`},
	{"having", `SELECT SUM(l.val) AS s FROM losses l, grp grp
WHERE l.cid = grp.cid AND l.val > 0.5 GROUP BY grp.g
HAVING s > 100.0 WITH RESULTDISTRIBUTION MONTECARLO(201)`},
	{"ungrouped", `SELECT SUM(val) AS s FROM losses WHERE val > 0.0
WITH RESULTDISTRIBUTION MONTECARLO(201)`},
}

// TestKernelBitIdentity pins the acceptance criterion of the vectorized
// kernel layer: results are bit-for-bit identical with kernels on and
// off (kernels=false is the version-major oracle), at worker counts
// {1, 2, 3, NumCPU} and batch sizes {1, 7, 1024}, with the prefix cache
// enabled and disabled.
func TestKernelBitIdentity(t *testing.T) {
	for _, q := range kernelIdentityQueries {
		t.Run(q.name, func(t *testing.T) {
			var want string
			check := func(label string, kernels bool, workers, batch, cache int) {
				t.Helper()
				e := kernelEngine(t, kernels, workers, batch, cache)
				res, err := e.Exec(q.sql)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := mcdbr.ResultBits(t, res)
				if want == "" {
					want = got
					return
				}
				if got != want {
					t.Fatalf("%s: result bits diverge from baseline", label)
				}
			}
			for _, kernels := range []bool{true, false} {
				for _, workers := range []int{1, 2, 3, runtime.NumCPU()} {
					for _, batch := range []int{1, 7, 1024} {
						check(fmt.Sprintf("kernels=%v workers=%d batch=%d", kernels, workers, batch),
							kernels, workers, batch, 0)
					}
				}
				check(fmt.Sprintf("kernels=%v cache=off", kernels), kernels, 2, 0, -1)
			}
		})
	}
}
