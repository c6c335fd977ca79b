package mcdbr_test

import (
	"fmt"
	"os"
	"path/filepath"
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
// worker count, batch size, and prefix cache. (The engine window is not
// one: plain Monte Carlo sizes its workspace window to the replicate
// count; tail results are checked against the window by
// TestTailWindowIndependence.)
func kernelEngine(t *testing.T, workers, batch, prefixCache int) *mcdbr.Engine {
	t.Helper()
	e := mcdbr.New(mcdbr.WithSeed(1234),
		mcdbr.WithParallelism(workers), mcdbr.WithBatchSize(batch),
		mcdbr.WithPrefixCacheSize(prefixCache))
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
	// wts.wt is declared float, but every third row holds the int 2: the
	// kernels' float lanes cannot take those tuples' weights.
	wts := storage.NewTable("wts", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindString},
		types.Column{Name: "wt", Kind: types.KindFloat},
	))
	for i, r := range means.Rows() {
		wt := types.NewFloat(1.5)
		if i%3 == 0 {
			wt = types.NewInt(2)
		}
		wts.MustAppend(types.Row{r[0], types.NewString([]string{"x", "y"}[i%2]), wt})
	}
	e.RegisterTable(wts)
	return e
}

// kernelIdentityQueries cover the vectorized surfaces: a grouped
// multi-aggregate query with a random-attribute WHERE (Select presence
// vectors + the window-major EvalWindow pass), the same with a HAVING
// threshold that includes both groups in some replicates but not all
// (s ranges over about 84–121), an ungrouped aggregate, and a query
// whose weight column contradicts its declared kind in the WHERE, the
// aggregate input and (through s) HAVING — group x is included in 96 %
// of the replicates, group y in 9 %.
var kernelIdentityQueries = []struct{ name, sql string }{
	{"grouped", `SELECT SUM(l.val) AS s, AVG(l.val * 2.0 + 1.0) AS a2, COUNT(*) AS c
FROM losses l, grp grp WHERE l.cid = grp.cid AND l.val > 0.5
GROUP BY grp.g WITH RESULTDISTRIBUTION MONTECARLO(201)`},
	{"having", `SELECT SUM(l.val) AS s FROM losses l, grp grp
WHERE l.cid = grp.cid AND l.val > 0.5 GROUP BY grp.g
HAVING s > 100.0 WITH RESULTDISTRIBUTION MONTECARLO(201)`},
	{"ungrouped", `SELECT SUM(val) AS s FROM losses WHERE val > 0.0
WITH RESULTDISTRIBUTION MONTECARLO(201)`},
	{"kindmismatch", `SELECT SUM(l.val * t.wt) AS s, COUNT(*) AS c FROM losses l, wts t
WHERE l.cid = t.cid AND l.val * t.wt > 3.0 GROUP BY t.g
HAVING s > 170.0 WITH RESULTDISTRIBUTION MONTECARLO(201)`},
}

// TestKernelBitIdentity pins the acceptance criterion of the vectorized
// kernel layer: at worker counts {1, 2, 3, NumCPU} and batch sizes {1, 7,
// 1024}, with the prefix cache enabled and disabled, every query's result
// bits equal testdata/kernel_<name>.bits. Those were captured from the
// closure interpreter evaluating one version at a time (the engine
// before the window-major pass became its only Monte Carlo loop), at one
// worker; the kindmismatch query ran that way even with kernels on. The
// pins are the oracle: never regenerate them from the code under test.
func TestKernelBitIdentity(t *testing.T) {
	for _, q := range kernelIdentityQueries {
		t.Run(q.name, func(t *testing.T) {
			pin, err := os.ReadFile(filepath.Join("testdata", "kernel_"+q.name+".bits"))
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, workers, batch, cache int) {
				t.Helper()
				res, err := kernelEngine(t, workers, batch, cache).Exec(q.sql)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if mcdbr.ResultBits(t, res) != string(pin) {
					t.Fatalf("%s: result bits diverge from the pinned version-major run", label)
				}
			}
			for _, workers := range []int{1, 2, 3, runtime.NumCPU()} {
				for _, batch := range []int{1, 7, 1024} {
					check(fmt.Sprintf("workers=%d batch=%d", workers, batch), workers, batch, 0)
				}
			}
			check("cache=off", 2, 0, -1)
		})
	}
}
