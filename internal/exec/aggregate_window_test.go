package exec

import (
	"math"
	"testing"

	"repro/internal/bundle"
	"repro/internal/expr"
	"repro/internal/prng"
)

// windowAggregate wraps the loss plan in a Select (so tuples carry
// presence vectors) under a multi-aggregate grouped Aggregate.
func windowAggregate(t *testing.T, ws *Workspace, having expr.Expr) *Aggregate {
	t.Helper()
	plan := buildLossPlan(t, ws)
	sel := &Select{Child: plan, Pred: expr.B(expr.OpGt, expr.C("losses.val"), expr.F(2.0))}
	agg, err := NewAggregate(sel,
		[]expr.Expr{expr.C("means.cid")}, []string{"cid"},
		[]AggSpec{
			{Kind: AggSum, Expr: expr.C("losses.val"), Name: "s"},
			{Kind: AggAvg, Expr: expr.B(expr.OpMul, expr.C("losses.val"), expr.F(2.0)), Name: "a"},
			{Kind: AggCount, Name: "c"},
		}, having)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// TestEvalWindowMatchesEvalVersion: the window-major pass must apply to
// the identity layout and produce bit-identical samples and HAVING
// include flags to the version-major loop, including the final predicate
// and presence checks. Each group holds one random tuple that is absent
// in some versions (COUNT 0, SUM 0, AVG -Inf there), which the HAVING
// cases below lean on.
func TestEvalWindowMatchesEvalVersion(t *testing.T) {
	const n = 48
	final := expr.B(expr.OpLt, expr.C("losses.val"), expr.F(6.5))
	cases := []struct {
		name   string
		having expr.Expr
	}{
		{"nil", nil},
		{"s > 1.0", expr.B(expr.OpGt, expr.C("s"), expr.F(1.0))},
		// Key and two aggregates; a - s is -Inf where the tuple is absent.
		{"cid * 2.0 > a - s", expr.B(expr.OpGt,
			expr.B(expr.OpMul, expr.C("cid"), expr.F(2.0)),
			expr.B(expr.OpSub, expr.C("a"), expr.C("s")))},
		// Excludes exactly the versions whose AVG is -Inf.
		{"c > 0", expr.B(expr.OpGt, expr.C("c"), expr.I(0))},
		// s / c is NULL where COUNT is 0; NULL must count as false.
		{"s / c > 4.0", expr.B(expr.OpGt, expr.B(expr.OpDiv, expr.C("s"), expr.C("c")), expr.F(4.0))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace(testCatalog(), prng.NewStream(9), n)
			ev, err := windowAggregate(t, ws, tc.having).OpenEval(ws, final)
			if err != nil {
				t.Fatal(err)
			}
			ws.Seeds.InitAssignAt(ws.Base, n)
			nG, nA := ev.NumGroups(), 3
			if nG != 3 {
				t.Fatalf("groups = %d", nG)
			}
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

			want, wantIncl := alloc()
			vec := make([][]float64, nG)
			for g := range vec {
				vec[g] = make([]float64, nA)
			}
			var include []bool
			if wantIncl != nil {
				include = make([]bool, nG)
			}
			for v := 0; v < n; v++ {
				if err := ev.EvalVersion(bundle.Bind(ws.Seeds, v), vec, include); err != nil {
					t.Fatal(err)
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

			got, gotIncl := alloc()
			ok, err := ev.EvalWindow(ws, n, got, gotIncl)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("EvalWindow declined the identity layout")
			}
			for g := 0; g < nG; g++ {
				for a := 0; a < nA; a++ {
					for v := 0; v < n; v++ {
						if math.Float64bits(got[g][a][v]) != math.Float64bits(want[g][a][v]) {
							t.Fatalf("group %d agg %d version %d: window %v vs version-major %v",
								g, a, v, got[g][a][v], want[g][a][v])
						}
					}
				}
			}
			if wantIncl == nil {
				return
			}
			var in, out int
			for g := 0; g < nG; g++ {
				for v := 0; v < n; v++ {
					if gotIncl[g][v] != wantIncl[g][v] {
						t.Fatalf("group %d version %d: window include %v vs version-major %v",
							g, v, gotIncl[g][v], wantIncl[g][v])
					}
					if wantIncl[g][v] {
						in++
					} else {
						out++
					}
				}
			}
			// Every predicate must split the versions, or the comparison
			// above proves nothing about the include step.
			if in == 0 || out == 0 {
				t.Fatalf("HAVING included %d and excluded %d versions; want both nonzero", in, out)
			}
		})
	}
}

// TestEvalWindowDeclines: disabled kernels and an n exceeding the
// materialized window must fall back (ok=false, no error).
func TestEvalWindowDeclines(t *testing.T) {
	const n = 16
	cat := testCatalog()

	decline := func(label string, ws *Workspace, agg *Aggregate, n int) {
		t.Helper()
		ev, err := agg.OpenEval(ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		ws.Seeds.InitAssignAt(ws.Base, n)
		full := make([][][]float64, ev.NumGroups())
		for g := range full {
			full[g] = make([][]float64, len(agg.Aggs))
			for a := range full[g] {
				full[g][a] = make([]float64, n)
			}
		}
		ok, err := ev.EvalWindow(ws, n, full, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if ok {
			t.Fatalf("%s: EvalWindow should decline", label)
		}
	}

	ws := NewWorkspace(cat, prng.NewStream(9), n)
	ws.DisableKernels = true
	decline("kernels off", ws, windowAggregate(t, ws, nil), n)

	ws2 := NewWorkspace(cat, prng.NewStream(9), 4)
	decline("window too small", ws2, windowAggregate(t, ws2, nil), n)
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
	ev, err := windowAggregate(t, ws, having).OpenEval(ws, nil)
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
