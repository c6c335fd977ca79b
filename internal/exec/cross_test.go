package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/types"
)

func TestCrossProduct(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	a, _ := NewScan(cat, "means", "a")
	b, _ := NewScan(cat, "dept", "b")
	cross := NewCross(a, b, nil)
	out, err := runPlan(ws, cross)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 9 { // 3 x 3
		t.Fatalf("cross rows = %d", len(out))
	}
	if cross.Schema().Len() != 4 {
		t.Fatalf("schema = %s", cross.Schema())
	}
}

func TestCrossResidual(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	a, _ := NewScan(cat, "means", "a")
	b, _ := NewScan(cat, "dept", "b")
	cross := NewCross(a, b, expr.B(expr.OpLt, expr.C("a.cid"), expr.C("b.cid")))
	out, err := runPlan(ws, cross)
	if err != nil {
		t.Fatal(err)
	}
	// a.cid in {1,2,3}, b.cid in {1,2,2}: pairs with a<b = (1,2),(1,2) = 2.
	if len(out) != 2 {
		t.Fatalf("residual cross rows = %d", len(out))
	}
}

func TestCrossCarriesRandomLineage(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 16)
	loss := buildLossPlan(t, ws)
	b, _ := NewScan(cat, "dept", "b")
	cross := NewCross(loss, b, nil)
	out, err := runPlan(ws, cross)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 9 {
		t.Fatalf("rows = %d", len(out))
	}
	for _, tu := range out {
		if len(tu.Rand) != 1 || tu.Rand[0].Slot != 2 {
			t.Fatalf("random lineage lost or misplaced: %+v", tu.Rand)
		}
	}
	// Right-side random slots must shift by the left width.
	cross2 := NewCross(b, loss, nil)
	out2, err := runPlan(ws, cross2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range out2 {
		if len(tu.Rand) != 1 || tu.Rand[0].Slot != 4 {
			t.Fatalf("right-side slot shift wrong: %+v", tu.Rand)
		}
	}
}

func TestRenameOperator(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	scan, _ := NewScan(cat, "means", "means")
	ren := NewRename(scan, "x")
	if ren.Schema().Lookup("x.cid") != 0 || ren.Schema().Lookup("x.m") != 1 {
		t.Fatalf("renamed schema = %s", ren.Schema())
	}
	out, err := runPlan(ws, ren)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("rows = %d", len(out))
	}
	if !ren.Deterministic() {
		t.Fatal("rename of a scan is deterministic")
	}
}

func TestProjectAs(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	scan, _ := NewScan(cat, "means", "means")
	p, err := NewProjectAs(scan, []string{"means.m", "means.cid"}, []string{"mean", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().Lookup("mean") != 0 || p.Schema().Lookup("id") != 1 {
		t.Fatalf("schema = %s", p.Schema())
	}
	if p.Schema().Col(0).Kind != types.KindFloat {
		t.Fatalf("kind lost: %s", p.Schema())
	}
	out, err := runPlan(ws, p)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Det[0].Kind() != types.KindFloat || out[0].Det[1].Kind() != types.KindInt {
		t.Fatalf("row = %v", out[0].Det)
	}
	if _, err := NewProjectAs(scan, []string{"means.m"}, []string{"a", "b"}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := NewProjectAs(scan, []string{"nope"}, []string{"a"}); err == nil {
		t.Fatal("unknown column must error")
	}
}
