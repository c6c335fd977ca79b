package plan

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vg"
)

// storageCat adapts a real storage.Catalog plus random metadata for
// end-to-end Build+Lower tests.
type storageCat struct {
	cat  *storage.Catalog
	rand map[string]*RandomMeta
}

func (c *storageCat) TableRows(name string) (int, bool) {
	t, ok := c.cat.Get(name)
	if !ok {
		return 0, false
	}
	return t.NumRows(), true
}

func (c *storageCat) TableColumns(name string) ([]string, bool) {
	t, ok := c.cat.Get(name)
	if !ok {
		return nil, false
	}
	cols := t.Schema().Columns()
	names := make([]string, len(cols))
	for i, col := range cols {
		names[i] = col.Name
	}
	return names, true
}

func (c *storageCat) Random(name string) (*RandomMeta, bool) {
	rm, ok := c.rand[strings.ToLower(name)]
	return rm, ok
}

// TestBuildLowerRun plans the §2 loss query, lowers it, and executes the
// physical plan: the logical layer must produce a runnable exec tree.
func TestBuildLowerRun(t *testing.T) {
	cat := storage.NewCatalog()
	means := storage.NewTable("means", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "m", Kind: types.KindFloat},
	))
	for i := 0; i < 5; i++ {
		means.MustAppend(types.Row{types.NewInt(int64(i)), types.NewFloat(3)})
	}
	cat.Put(means)
	pcat := &storageCat{cat: cat, rand: map[string]*RandomMeta{"losses": {
		ParamTable: "means",
		VG:         "Normal",
		VGParams:   []expr.Expr{expr.C("m"), expr.F(1)},
		NumOuts:    1,
		Columns: []RandomColMeta{
			{Name: "cid", FromParam: "cid"},
			{Name: "val", VGOut: 0},
		},
	}}}
	p, err := Build(pcat, Query{
		Froms: []From{{Table: "losses", Alias: "l"}},
		Where: []expr.Expr{expr.B(expr.OpLt, expr.C("cid"), expr.I(3))},
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := Lower(p.Root, cat, vg.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ws := exec.NewWorkspace(cat, prng.NewStream(7), 32)
	it, err := node.Open(ws)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	tuples := 0
	for {
		b, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, tu := range b.Tuples {
			tuples++
			if len(tu.Rand) != 1 {
				t.Fatalf("tuple lacks its random slot: %+v", tu)
			}
		}
	}
	if tuples != 3 {
		t.Fatalf("tuples = %d, want 3 (cid < 3)", tuples)
	}
	// The physical tree mirrors the logical one.
	phys := exec.FormatPlan(node)
	for _, op := range []string{"Select", "Rename(l)", "Project", "Instantiate", "Seed(Normal)", "Scan(means AS __param)"} {
		if !strings.Contains(phys, op) {
			t.Fatalf("physical plan missing %s:\n%s", op, phys)
		}
	}
}

// TestLowerErrors: unknown tables and VG functions surface as errors.
func TestLowerErrors(t *testing.T) {
	cat := storage.NewCatalog()
	if _, err := Lower(&Rel{Table: "nope", Alias: "n"}, cat, vg.NewRegistry()); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := Lower(&Seed{Child: &Rel{Table: "nope", Alias: "n"}, VG: "NoVG"}, cat, vg.NewRegistry()); err == nil {
		t.Fatal("bad child must error")
	}
}

// TestFormat renders annotations.
func TestFormat(t *testing.T) {
	n := &Filter{Child: &Rel{Table: "t", Alias: "t"}, Pred: expr.B(expr.OpLt, expr.C("t.a"), expr.I(1))}
	n.Props = Props{Det: true, Rows: 10}
	n.Child.(*Rel).Props = Props{Det: true, Rows: 100}
	got := Format(n)
	want := "Filter((t.a < 1)) [rows~10 det]\n  Rel(t AS t) [rows~100 det]\n"
	if got != want {
		t.Fatalf("Format:\n%q\nwant\n%q", got, want)
	}
}
