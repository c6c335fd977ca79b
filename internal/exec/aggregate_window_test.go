package exec

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/storage"
	"repro/internal/types"
)

// windowCatalog is testCatalog with a weight column on means. w is
// declared float, but cid 2's weight is the int 1: an expression reading
// w contradicts its kernel's lane kind on that tuple only.
func windowCatalog() *storage.Catalog {
	cat := testCatalog()
	means := storage.NewTable("means", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "m", Kind: types.KindFloat},
		types.Column{Name: "w", Kind: types.KindFloat},
	))
	for i, w := range []types.Value{types.NewFloat(1.5), types.NewInt(1), types.NewFloat(0.5)} {
		means.MustAppend(types.Row{types.NewInt(int64(i + 1)), types.NewFloat(float64(i + 3)), w})
	}
	cat.Put(means)
	return cat
}

// windowAggregate wraps the loss plan in a Select (so tuples carry
// presence vectors) under a grouped Aggregate of SUM(x) AS s,
// AVG(x * 2.0) AS a and COUNT(*) AS c.
func windowAggregate(t *testing.T, ws *Workspace, x, having expr.Expr) *Aggregate {
	t.Helper()
	plan := buildLossPlan(t, ws)
	sel := &Select{Child: plan, Pred: expr.B(expr.OpGt, expr.C("losses.val"), expr.F(2.0))}
	agg, err := NewAggregate(sel,
		[]expr.Expr{expr.C("means.cid")}, []string{"cid"},
		[]AggSpec{
			{Kind: AggSum, Expr: x, Name: "s"},
			{Kind: AggAvg, Expr: expr.B(expr.OpMul, x, expr.F(2.0)), Name: "a"},
			{Kind: AggCount, Name: "c"},
		}, having)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// windowCase is one EvalWindow-versus-EvalVersion comparison over n
// versions of the grouped loss plan; see windowAggregate and checkWindow.
type windowCase struct {
	name          string
	x             expr.Expr // aggregate input
	final, having expr.Expr // nil: none
	n             int       // versions; 0 means 48
	window        int       // workspace window of the EvalWindow run; 0 means n
	wantErr       bool      // EvalWindow and EvalVersion must fail with the same text
}

// checkWindow evaluates every version through the EvalVersion reference
// and then all versions through EvalWindow, and fails on any difference
// in sample bits, HAVING include flags or error text. Each group holds
// one random tuple that is absent in some versions (COUNT 0, SUM 0, AVG
// -Inf there). A HAVING clause must split the versions, or the include
// comparison proves nothing. With a window smaller than n, EvalWindow
// walks the versions in tiles of that window on its own workspace, and
// must also match, bit for bit, an untiled EvalWindow run on a workspace
// whose window holds all n versions (the one EvalVersion reads).
func checkWindow(t *testing.T, tc windowCase) {
	n := tc.n
	if n == 0 {
		n = 48
	}
	window := tc.window
	if window == 0 {
		window = n
	}
	open := func(window int) (*Workspace, *AggEval) {
		ws := NewWorkspace(windowCatalog(), prng.NewStream(9), window)
		ev, err := windowAggregate(t, ws, tc.x, tc.having).OpenEval(ws, tc.final)
		if err != nil {
			t.Fatal(err)
		}
		ws.Seeds.InitAssignAt(ws.Base, min(n, window))
		if ev.NumGroups() != 3 {
			t.Fatalf("groups = %d", ev.NumGroups())
		}
		return ws, ev
	}
	nG, nA := 3, 3
	alloc := func() ([][][]float64, [][]bool) {
		out := make([][][]float64, nG)
		for g := range out {
			out[g] = make([][]float64, nA)
			for a := range out[g] {
				out[g][a] = make([]float64, n)
			}
		}
		if tc.having == nil {
			return out, nil
		}
		incl := make([][]bool, nG)
		for g := range incl {
			incl[g] = make([]bool, n)
		}
		return out, incl
	}
	same := func(what string, got, want [][][]float64, gotIncl, wantIncl [][]bool) {
		t.Helper()
		for g := 0; g < nG; g++ {
			for a := 0; a < nA; a++ {
				for v := 0; v < n; v++ {
					if math.Float64bits(got[g][a][v]) != math.Float64bits(want[g][a][v]) {
						t.Fatalf("group %d agg %d version %d: window %v vs %s %v",
							g, a, v, got[g][a][v], what, want[g][a][v])
					}
				}
			}
			for v := 0; wantIncl != nil && v < n; v++ {
				if gotIncl[g][v] != wantIncl[g][v] {
					t.Fatalf("group %d version %d: window include %v vs %s %v",
						g, v, gotIncl[g][v], what, wantIncl[g][v])
				}
			}
		}
	}

	wsWin, evWin := open(window)
	got, gotIncl := alloc()
	winErr := evWin.EvalWindow(wsWin, n, got, gotIncl)
	ws, ev := open(n)
	if window < n {
		if winErr != nil {
			t.Fatalf("tiled EvalWindow: %v", winErr)
		}
		untiled, untiledIncl := alloc()
		if err := ev.EvalWindow(ws, n, untiled, untiledIncl); err != nil {
			t.Fatalf("untiled EvalWindow: %v", err)
		}
		same("untiled", got, untiled, gotIncl, untiledIncl)
	}
	want, wantIncl := alloc()
	vec := make([][]float64, nG)
	for g := range vec {
		vec[g] = make([]float64, nA)
	}
	var include []bool
	if wantIncl != nil {
		include = make([]bool, nG)
	}
	var verErr error
	for v := 0; v < n && verErr == nil; v++ {
		if verErr = ev.EvalVersion(bundle.Bind(ws.Seeds, v), vec, include); verErr != nil {
			break
		}
		for g := 0; g < nG; g++ {
			for a := 0; a < nA; a++ {
				want[g][a][v] = vec[g][a]
			}
			if include != nil {
				wantIncl[g][v] = include[g]
			}
		}
	}
	if tc.wantErr {
		if winErr == nil || verErr == nil || winErr.Error() != verErr.Error() {
			t.Fatalf("errors differ: window %v, version-major %v", winErr, verErr)
		}
		return
	}
	if winErr != nil || verErr != nil {
		t.Fatalf("window error %v, version-major error %v", winErr, verErr)
	}
	same("version-major", got, want, gotIncl, wantIncl)
	if wantIncl == nil {
		return
	}
	var in, out int
	for g := 0; g < nG; g++ {
		for v := 0; v < n; v++ {
			if wantIncl[g][v] {
				in++
			} else {
				out++
			}
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("HAVING included %d and excluded %d versions; want both nonzero", in, out)
	}
}

// TestEvalWindowMatchesEvalVersion: the window-major pass must produce
// bit-identical samples and HAVING include flags to the version-major
// reference, including the final predicate and presence checks.
func TestEvalWindowMatchesEvalVersion(t *testing.T) {
	val := expr.C("losses.val")
	final := expr.B(expr.OpLt, val, expr.F(6.5))
	for _, tc := range []windowCase{
		{name: "nil"},
		{name: "s > 1.0", having: expr.B(expr.OpGt, expr.C("s"), expr.F(1.0))},
		// Key and two aggregates; a - s is -Inf where the tuple is absent.
		{name: "cid * 2.0 > a - s", having: expr.B(expr.OpGt,
			expr.B(expr.OpMul, expr.C("cid"), expr.F(2.0)),
			expr.B(expr.OpSub, expr.C("a"), expr.C("s")))},
		// Excludes exactly the versions whose AVG is -Inf.
		{name: "c > 0", having: expr.B(expr.OpGt, expr.C("c"), expr.I(0))},
		// s / c is NULL where COUNT is 0; NULL must count as false.
		{name: "s / c > 4.0", having: expr.B(expr.OpGt, expr.B(expr.OpDiv, expr.C("s"), expr.C("c")), expr.F(4.0))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.x, tc.final = val, final
			checkWindow(t, tc)
		})
	}
}

// TestEvalWindowFallbacks: lanes the kernels cannot fill come from the
// interpreter, per tuple and expression, and still match EvalVersion bit
// for bit — or fail with its error text; a window too small for n walks
// the versions in tiles, presence bits, final predicate and interpreter
// lanes included, and matches the untiled run bit for bit.
func TestEvalWindowFallbacks(t *testing.T) {
	weighted := expr.B(expr.OpMul, expr.C("losses.val"), expr.C("means.w"))
	// cid 2's int weight contradicts the float lane of means.w in the
	// final-predicate and both aggregate-input kernels; cids 1 and 3
	// stay on the kernels.
	final := expr.B(expr.OpLt, weighted, expr.F(4.5))
	having := expr.B(expr.OpGt, expr.C("s"), expr.F(3.0))
	for _, tc := range []windowCase{
		{name: "kind mismatch", x: weighted, final: final, having: having},
		// Every tuple is random, so the error surfaces from the per-version
		// pass rather than from OpenEval's deterministic base.
		{name: "string input", x: expr.S("loss"), wantErr: true},
		// Three whole tiles of 16, and a ragged 16 + 16 + 8.
		{name: "window too small", x: weighted, final: final, having: having, window: 16},
		{name: "window too small ragged", x: weighted, final: final, having: having, n: 40, window: 16},
	} {
		t.Run(tc.name, func(t *testing.T) { checkWindow(t, tc) })
	}
}

// TestEvalWindowSplitNotTiled: a Split enumerates its groups from the
// window, so an aggregate over a Split plan reports HasSplit and
// EvalWindow refuses to tile it, while versions that fit its window run.
func TestEvalWindowSplitNotTiled(t *testing.T) {
	const window = 32
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), window)
	scan, _ := NewScan(cat, "means", "means")
	seed, err := NewSeed(scan, coinVG{}, nil, []string{"coin"})
	if err != nil {
		t.Fatal(err)
	}
	split := &Split{Child: &Instantiate{Child: seed}, Col: "coin"}
	agg, err := NewAggregate(split, []expr.Expr{expr.C("coin")}, []string{"coin"},
		[]AggSpec{{Kind: AggCount, Name: "c"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.HasSplit() {
		t.Fatal("HasSplit = false over a Split plan")
	}
	ev, err := agg.OpenEval(ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws.Seeds.InitAssignAt(ws.Base, window)
	alloc := func(n int) [][][]float64 {
		out := make([][][]float64, ev.NumGroups())
		for g := range out {
			out[g] = [][]float64{make([]float64, n)}
		}
		return out
	}
	if err := ev.EvalWindow(ws, window+1, alloc(window+1), nil); err == nil || !strings.Contains(err.Error(), "Split") {
		t.Fatalf("EvalWindow over %d versions of a %d-version Split window: err = %v", window+1, window, err)
	}
	out := alloc(window)
	if err := ev.EvalWindow(ws, window, out, nil); err != nil {
		t.Fatal(err)
	}
	// Every version counts each customer in exactly one coin group.
	for v := 0; v < window; v++ {
		total := 0.0
		for g := range out {
			total += out[g][0][v]
		}
		if total != 3 {
			t.Fatalf("version %d: %v customers over the coin groups, want 3", v, total)
		}
	}
	if plain := windowAggregate(t, NewWorkspace(windowCatalog(), prng.NewStream(9), 8), expr.C("losses.val"), nil); plain.HasSplit() {
		t.Fatal("HasSplit = true without a Split")
	}
}

// TestEvalVersionHavingZeroAllocs pins the HAVING hot loop at zero
// allocations per version: group keys are prefilled into per-group
// output rows at OpenEval, so per version only the aggregate slots are
// overwritten in place.
func TestEvalVersionHavingZeroAllocs(t *testing.T) {
	const n = 8
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(9), n)
	having := expr.B(expr.OpGt, expr.C("s"), expr.F(1.0))
	ev, err := windowAggregate(t, ws, expr.C("losses.val"), having).OpenEval(ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws.Seeds.InitAssignAt(ws.Base, n)
	nG := ev.NumGroups()
	out := make([][]float64, nG)
	for g := range out {
		out[g] = make([]float64, 3)
	}
	include := make([]bool, nG)
	b := bundle.Bind(ws.Seeds, 0)
	if err := ev.EvalVersion(b, out, include); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ev.EvalVersion(b, out, include); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EvalVersion with HAVING allocates %v per version, want 0", allocs)
	}
}

// BenchmarkKernel_EvalWindow_Speedup times the EvalVersion reference loop
// against one EvalWindow pass on the same grouped AggEval over 2048
// versions, checks that both produce the same bits, and reports the
// ratio of their times as "speedup". Both run on one goroutine in one
// process, so the ratio does not depend on the machine's CPU count.
func BenchmarkKernel_EvalWindow_Speedup(b *testing.B) {
	const n, customers, groups = 2048, 128, 4
	cat := storage.NewCatalog()
	means := storage.NewTable("means", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "m", Kind: types.KindFloat},
		types.Column{Name: "g", Kind: types.KindInt},
	))
	for i := 0; i < customers; i++ {
		means.MustAppend(types.Row{types.NewInt(int64(i)), types.NewFloat(float64(2 + i%7)), types.NewInt(int64(i % groups))})
	}
	cat.Put(means)
	ws := NewWorkspace(cat, prng.NewStream(7), n)
	sel := &Select{Child: buildLossPlan(b, ws), Pred: expr.B(expr.OpGt, expr.C("losses.val"), expr.F(0.5))}
	agg, err := NewAggregate(sel, []expr.Expr{expr.C("means.g")}, []string{"g"},
		[]AggSpec{{Kind: AggSum, Expr: expr.C("losses.val"), Name: "s"}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := agg.OpenEval(ws, nil)
	if err != nil {
		b.Fatal(err)
	}
	ws.Seeds.InitAssignAt(ws.Base, n)
	vec := make([][]float64, groups)
	want := make([][][]float64, groups)
	got := make([][][]float64, groups)
	for g := range vec {
		vec[g] = make([]float64, 1)
		want[g] = [][]float64{make([]float64, n)}
		got[g] = [][]float64{make([]float64, n)}
	}
	// The first pass builds the kernels and grows the lanes once.
	if err := ev.EvalWindow(ws, n, got, nil); err != nil {
		b.Fatal(err)
	}
	var version, window time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e0 := b.Elapsed()
		for v := 0; v < n; v++ {
			if err := ev.EvalVersion(bundle.Bind(ws.Seeds, v), vec, nil); err != nil {
				b.Fatal(err)
			}
			for g := range vec {
				want[g][0][v] = vec[g][0]
			}
		}
		e1 := b.Elapsed()
		if err := ev.EvalWindow(ws, n, got, nil); err != nil {
			b.Fatal(err)
		}
		version += e1 - e0
		window += b.Elapsed() - e1
		for g := range want {
			for v, x := range want[g][0] {
				if math.Float64bits(got[g][0][v]) != math.Float64bits(x) {
					b.Fatalf("group %d version %d: window %v vs version-major %v", g, v, got[g][0][v], x)
				}
			}
		}
	}
	if window > 0 {
		b.ReportMetric(version.Seconds()/window.Seconds(), "speedup")
	}
}
