package gibbs

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bundle"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/seeds"
	"repro/internal/types"
	"repro/internal/vg"
)

// selfJoinPlan crosses two instantiations of means, e1 and e2, so every
// tuple reads two seeds and every seed feeds one tuple per means row: the
// shape of the Fig. 2 salary self-join.
func selfJoinPlan(t testing.TB, ws *exec.Workspace) exec.Node {
	t.Helper()
	normal, _ := vg.NewRegistry().Lookup("Normal")
	side := func(alias string) exec.Node {
		scan, err := exec.NewScan(ws.Catalog, "means", alias)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := exec.NewSeed(scan, normal, []expr.Expr{expr.C(alias + ".m"), expr.F(1)}, []string{alias + ".val"})
		if err != nil {
			t.Fatal(err)
		}
		return &exec.Instantiate{Child: seed}
	}
	return exec.NewCross(side("e1"), side("e2"), nil)
}

// TestResidualContribMatchesContrib checks every tuple's residual
// contribution against the full-row path (Tuple.Eval, final predicate,
// AggSpec.Contribution) bit for bit, errors included, under random
// assignments inside and beyond the window and under rejection-candidate
// overrides. Some window values are an INT or a NULL where the VG function
// emits FLOATs, so resX's fallback to the compiled residual runs too.
func TestResidualContribMatchesContrib(t *testing.T) {
	val, m := expr.C("losses.val"), expr.C("means.m")
	sum := func(e expr.Expr) exec.AggSpec { return exec.AggSpec{Kind: exec.AggSum, Expr: e} }
	loss := func(t testing.TB, ws *exec.Workspace) exec.Node { return lossPlan(t, ws, 1) }
	for _, tc := range []struct {
		name string
		plan func(testing.TB, *exec.Workspace) exec.Node
		q    Query
		form resForm // of the first tuple
	}{
		{"x", loss, Query{Agg: sum(val)}, resX},
		{"x lower tail", loss, Query{Agg: sum(val), LowerTail: true}, resX},
		{"avg c*x", loss, Query{Agg: exec.AggSpec{Kind: exec.AggAvg, Expr: expr.B(expr.OpMul, m, val)}}, resCompiled},
		{"x+c", loss, Query{Agg: sum(expr.B(expr.OpAdd, val, m)), LowerTail: true}, resCompiled},
		{"c*x+c", loss, Query{Agg: sum(expr.B(expr.OpAdd, expr.F(1.5), expr.B(expr.OpMul, val, m)))}, resCompiled},
		{"int constant", loss, Query{Agg: sum(expr.B(expr.OpMul, val, expr.I(3)))}, resCompiled},
		{"count", loss, Query{Agg: exec.AggSpec{Kind: exec.AggCount}}, resCount},
		{"count x>c", loss, Query{Agg: exec.AggSpec{Kind: exec.AggCount}, FinalPred: expr.B(expr.OpGt, val, expr.F(4.5))}, resCompiled},
		{"c<=x ? c*x", loss, Query{Agg: sum(expr.B(expr.OpMul, expr.F(2), val)), FinalPred: expr.B(expr.OpLe, m, val)}, resCompiled},
		{"x-c", loss, Query{Agg: sum(expr.B(expr.OpSub, val, m))}, resCompiled},
		{"string aggregate", loss, Query{Agg: sum(expr.S("a"))}, resCompiled},
		{"shared seed c*x", sharedSeedPlan, Query{Agg: sum(expr.B(expr.OpMul, expr.C("val"), expr.C("w.m")))}, resCompiled},
		{"shared seed x", sharedSeedPlan, Query{Agg: sum(expr.C("val"))}, resX},
		{"two seeds b-a if b>a", twoSeedPlan, Query{
			Agg:       sum(expr.B(expr.OpSub, expr.C("b"), expr.C("a"))),
			FinalPred: expr.B(expr.OpGt, expr.C("b"), expr.C("a")),
		}, resCompiled},
		{"fig2 self-join", selfJoinPlan, Query{
			Agg:       sum(expr.B(expr.OpSub, expr.C("e2.val"), expr.C("e1.val"))),
			FinalPred: expr.B(expr.OpGt, expr.C("e2.val"), expr.C("e1.val")),
			LowerTail: true,
		}, resCompiled},
		{"fig2 avg", selfJoinPlan, Query{
			Agg:       exec.AggSpec{Kind: exec.AggAvg, Expr: expr.B(expr.OpSub, expr.C("e2.val"), expr.C("e1.val"))},
			FinalPred: expr.B(expr.OpGt, expr.C("e2.val"), expr.C("e1.val")),
		}, resCompiled},
		{"presence", func(t testing.TB, ws *exec.Workspace) exec.Node { return selectivePlan(t, ws, 1) }, Query{Agg: sum(val)}, resPresence},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const window, versions = 16, 8
			ws := exec.NewWorkspace(lossCatalog([]float64{3, 4, 5, 6}), prng.NewStream(5), window)
			lp := &looper{ws: ws, plan: tc.plan(t, ws), q: tc.q, cfg: Config{N: versions}}
			if err := lp.init(); err != nil {
				t.Fatal(err)
			}
			if len(lp.rand) == 0 {
				t.Fatal("no random tuples")
			}
			if got := lp.resid.form[0]; got != tc.form {
				t.Fatalf("first tuple has form %d, want %d", got, tc.form)
			}
			for _, id := range lp.seeds.handles {
				w := &ws.Seeds.MustGet(id).Window
				w.Vals[1] = []types.Value{types.NewInt(4)}
				w.Vals[2] = []types.Value{types.Null}
			}
			rng := prng.NewSub(11)
			// draw picks a stream position inside or beyond the window and
			// its VG output row.
			draw := func(id uint64) (uint64, []types.Value) {
				s := ws.Seeds.MustGet(id)
				pos := uint64(rng.Intn(3 * window))
				if row, ok := s.Window.Get(pos); ok {
					return pos, row
				}
				row := make([]types.Value, s.NumOut())
				if err := s.Sample(pos, row); err != nil {
					t.Fatal(err)
				}
				return pos, row
			}
			buf, ref := make(types.Row, len(lp.buf)), make(types.Row, len(lp.buf))
			// check compares tuple t0 in version v, with seed over (nil for
			// none) bound to pos and row, against b on the full row.
			check := func(what string, t0, v int, b bundle.Binding, over *seeds.TSSeed, pos uint64, row []types.Value) {
				t.Helper()
				s, c, err := lp.residualContrib(t0, v, over, pos, row, buf)
				want, wantC, wantErr := lp.contrib(lp.rand[t0], b, ref)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || math.Float64bits(s) != math.Float64bits(want) || c != wantC {
					t.Fatalf("%s: tuple %d version %d: residual (%v, %d, %v), full row (%v, %d, %v)", what, t0, v, s, c, err, want, wantC, wantErr)
				}
			}
			for round := 0; round < 20; round++ {
				for _, id := range lp.seeds.handles {
					s := ws.Seeds.MustGet(id)
					for v := 0; v < versions; v++ {
						pos, row := draw(id)
						s.SetAssign(v, pos, row)
					}
				}
				for v := 0; v < versions; v++ {
					for t0 := range lp.rand {
						check("assignment", t0, v, bundle.Bind(ws.Seeds, v), nil, 0, nil)
					}
				}
				for h, id := range lp.seeds.handles {
					pos, row := draw(id)
					for _, t0 := range lp.seeds.tuples[lp.seeds.offs[h]:lp.seeds.offs[h+1]] {
						for v := 0; v < versions; v++ {
							check("override", t0, v, bundle.Bind(ws.Seeds, v).WithOverride(id, pos, row), ws.Seeds.MustGet(id), pos, row)
						}
					}
				}
			}
		})
	}
}
