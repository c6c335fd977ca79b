package gibbs

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/prng"
)

// aggOver wraps a tuple plan in a single-SUM Aggregate root.
func aggOver(t testing.TB, plan exec.Node, groupBy []expr.Expr, names []string) *exec.Aggregate {
	t.Helper()
	agg, err := exec.NewAggregate(plan,
		groupBy, names,
		[]exec.AggSpec{{Kind: exec.AggSum, Expr: expr.C("losses.val"), Name: "s"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// TestMonteCarloGroupedMatchesMonteCarlo: for a single ungrouped
// aggregate the grouped path is bit-identical to MonteCarlo.
func TestMonteCarloGroupedMatchesMonteCarlo(t *testing.T) {
	const n = 40
	cat := lossCatalog([]float64{3, 4, 5, 6})
	ws := exec.NewWorkspace(cat, prng.NewStream(77), n)
	plan := lossPlan(t, ws, 1)
	want, err := MonteCarlo(ws, plan, sumQuery(), n)
	if err != nil {
		t.Fatal(err)
	}
	ws2 := exec.NewWorkspace(cat, prng.NewStream(77), n)
	plan2 := lossPlan(t, ws2, 1)
	gr, err := monteCarloGrouped(ws2, aggOver(t, plan2, nil, nil), nil, n)
	if err != nil {
		t.Fatalf("grouped: %v", err)
	}
	if len(gr.Keys) != 1 || len(gr.Samples[0]) != 1 {
		t.Fatalf("shape %d groups", len(gr.Keys))
	}
	got := gr.Samples[0][0]
	if len(got) != n {
		t.Fatalf("%d samples", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rep %d: grouped %v vs MonteCarlo %v", i, got[i], want[i])
		}
	}
}
