package bundle

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/seeds"
	"repro/internal/types"
)

// fixedVG emits position-dependent deterministic values so tests can
// predict window contents: output = [pos, pos*10].
type fixedVG struct{}

func (fixedVG) Name() string           { return "Fixed" }
func (fixedVG) Arity() int             { return 0 }
func (fixedVG) OutKinds() []types.Kind { return []types.Kind{types.KindFloat, types.KindFloat} }
func (fixedVG) Generate(_ []types.Value, sub *prng.Sub) ([]types.Value, error) {
	// Derive the "position" from the substream deterministically: use the
	// first uniform scaled; but tests need exact values, so instead tests
	// use a real store where values are read back via ValueAt.
	u := sub.Float64()
	return []types.Value{types.NewFloat(u), types.NewFloat(u * 10)}, nil
}

func testStore(t *testing.T, nSeeds, nVersions, window int) *seeds.Store {
	t.Helper()
	st := seeds.NewStore()
	master := prng.NewStream(7)
	for i := 0; i < nSeeds; i++ {
		s := st.Alloc(master, fixedVG{}, nil)
		if err := s.Materialize(0, window, nil); err != nil {
			t.Fatal(err)
		}
	}
	st.InitAssign(nVersions)
	return st
}

func TestPresVecAt(t *testing.T) {
	p := PresVec{SeedID: 1, Bits: []bool{true, false, true}}
	// The bits mirror the window; a ragged window leaves trailing bits
	// unread.
	w := &seeds.Window{Lo: 4, N: 2, Width: 1, Vals: make([]types.Value, 2)}
	cases := []struct {
		pos         uint64
		wantPresent bool
		wantCovered bool
	}{
		{4, true, true}, {5, false, true}, {3, false, false}, {6, false, false},
	}
	for _, tc := range cases {
		got, ok := p.At(w, tc.pos)
		if got != tc.wantPresent || ok != tc.wantCovered {
			t.Errorf("At(%d) = %v,%v want %v,%v", tc.pos, got, ok, tc.wantPresent, tc.wantCovered)
		}
	}
}

func TestSeedIDs(t *testing.T) {
	tu := &Tuple{
		Det:  types.Row{types.Null, types.Null, types.NewInt(5)},
		Rand: []RandRef{{Slot: 0, SeedID: 3}, {Slot: 1, SeedID: 1}},
		Pres: []PresVec{{SeedID: 3}, {SeedID: 7}},
	}
	ids := tu.SeedIDs()
	want := []uint64{1, 3, 7}
	if len(ids) != 3 {
		t.Fatalf("SeedIDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("SeedIDs = %v, want %v", ids, want)
		}
	}
	if !tu.IsRandom() {
		t.Fatal("tuple with rand refs is random")
	}
	if NewDet(types.Row{types.NewInt(1)}).IsRandom() {
		t.Fatal("det tuple is not random")
	}
}

func TestEvalFillsRandomSlots(t *testing.T) {
	st := testStore(t, 2, 3, 8)
	tu := &Tuple{
		Det: types.Row{types.NewString("k"), types.Null, types.Null},
		Rand: []RandRef{
			{Slot: 1, SeedID: 0, Out: 0},
			{Slot: 2, SeedID: 1, Out: 1},
		},
	}
	for v := 0; v < 3; v++ {
		row, present, err := tu.Eval(Bind(st, v), nil)
		if err != nil || !present {
			t.Fatalf("Eval v%d: present=%v err=%v", v, present, err)
		}
		want0, _ := st.MustGet(0).Window.Get(uint64(v))
		want1, _ := st.MustGet(1).Window.Get(uint64(v))
		if !row[1].Equal(want0[0]) || !row[2].Equal(want1[1]) {
			t.Fatalf("v%d row = %v", v, row)
		}
		if row[0].Str() != "k" {
			t.Fatal("deterministic slot clobbered")
		}
	}
}

func TestEvalWithOverride(t *testing.T) {
	st := testStore(t, 1, 2, 8)
	tu := &Tuple{
		Det:  types.Row{types.Null},
		Rand: []RandRef{{Slot: 0, SeedID: 0, Out: 0}},
	}
	want, _ := st.MustGet(0).Window.Get(5)
	b := Bind(st, 0).WithOverride(0, 5, want)
	row, present, err := tu.Eval(b, nil)
	if err != nil || !present {
		t.Fatal(err)
	}
	if !row[0].Equal(want[0]) {
		t.Fatalf("override not applied: %v vs %v", row[0], want[0])
	}
	// Override of a different seed must not affect this one.
	b2 := Bind(st, 1).WithOverride(99, 5, want)
	row2, _, _ := tu.Eval(b2, nil)
	want2, _ := st.MustGet(0).Window.Get(1)
	if !row2[0].Equal(want2[0]) {
		t.Fatal("unrelated override changed binding")
	}
}

func TestEvalPresence(t *testing.T) {
	st := testStore(t, 1, 4, 8)
	tu := &Tuple{
		Det:  types.Row{types.NewInt(1)},
		Pres: []PresVec{{SeedID: 0, Bits: []bool{true, false, true, false, true, true, true, true}}},
	}
	wantPresent := []bool{true, false, true, false}
	for v := 0; v < 4; v++ {
		_, present, err := tu.Eval(Bind(st, v), nil)
		if err != nil {
			t.Fatal(err)
		}
		if present != wantPresent[v] {
			t.Fatalf("v%d present = %v", v, present)
		}
	}
}

// TestEvalBeyondWindow: positions outside the window read the override
// row or the version's cached row, presence vectors answer through their
// lineage, and a position with neither is an error.
func TestEvalBeyondWindow(t *testing.T) {
	st := testStore(t, 1, 3, 4)
	s := st.MustGet(0)
	row100, _ := s.ValueAt(100)
	s.SetAssign(0, 100, row100)
	tu := &Tuple{Det: types.Row{types.Null}, Rand: []RandRef{{Slot: 0, SeedID: 0, Out: 1}}}
	got, present, err := tu.Eval(Bind(st, 0), nil)
	if err != nil || !present || !got[0].Equal(row100[1]) {
		t.Fatalf("cached row: %v %v %v, want %v", got, present, err, row100[1])
	}
	row7, _ := s.ValueAt(7)
	got, _, err = tu.Eval(Bind(st, 1).WithOverride(0, 7, row7), nil)
	if err != nil || !got[0].Equal(row7[1]) {
		t.Fatalf("override row: %v %v, want %v", got, err, row7[1])
	}
	s.Assign[2] = 50 // assigned without a row
	if _, _, err := tu.Eval(Bind(st, 2), nil); err == nil {
		t.Fatal("a position neither materialized nor cached must error")
	}

	// Select lineage: present iff output 0 exceeds the cut.
	cut := row100[0].Float()
	pred, err := expr.Compile(expr.B(expr.OpGe, expr.C("x"), expr.F(cut)), types.NewSchema(types.Column{Name: "x", Kind: types.KindFloat}))
	if err != nil {
		t.Fatal(err)
	}
	sel := &Tuple{Det: types.Row{types.NewInt(1)}, Pres: []PresVec{{SeedID: 0, Bits: []bool{true, true, true, true},
		Lineage: &Lineage{Pred: pred, Refs: []RandRef{{Slot: 0, SeedID: 0, Out: 0}}, Det: types.Row{types.Null}}}}}
	if _, present, err := sel.Eval(Bind(st, 0), make(types.Row, 1)); err != nil || !present {
		t.Fatalf("lineage at the cut: present=%v err=%v", present, err)
	}
	lower := []types.Value{types.NewFloat(cut - 1), types.NewFloat(0)}
	if _, present, err := sel.Eval(Bind(st, 0).WithOverride(0, 9, lower), nil); err != nil || present {
		t.Fatalf("lineage below the cut: present=%v err=%v", present, err)
	}
	if _, present, _ := sel.Eval(Bind(st, 1), nil); !present {
		t.Fatal("an in-window position must read the bits")
	}

	// Split lineage: group 1 of {row100[1], 42}; other values error.
	groups := []types.Value{types.NewFloat(42), row100[1]}
	split := &Tuple{Det: types.Row{types.NewInt(1)}, Pres: []PresVec{{SeedID: 0, Bits: make([]bool, 4),
		Lineage: &Lineage{Out: 1, Group: 1, Groups: groups}}}}
	if _, present, err := split.Eval(Bind(st, 0), nil); err != nil || !present {
		t.Fatalf("split lineage, own group: present=%v err=%v", present, err)
	}
	other := []types.Value{types.NewFloat(0), types.NewFloat(42)}
	if _, present, err := split.Eval(Bind(st, 0).WithOverride(0, 9, other), nil); err != nil || present {
		t.Fatalf("split lineage, other group: present=%v err=%v", present, err)
	}
	unseen := []types.Value{types.NewFloat(0), types.NewFloat(-3)}
	if _, _, err := split.Eval(Bind(st, 0).WithOverride(0, 9, unseen), nil); err == nil {
		t.Fatal("a split value outside the enumerated groups must error, not drop the tuple")
	}
	bare := &Tuple{Det: types.Row{types.NewInt(1)}, Pres: []PresVec{{SeedID: 0, Bits: make([]bool, 4)}}}
	if _, _, err := bare.Eval(Bind(st, 0), nil); err == nil {
		t.Fatal("a position outside the bits without lineage must error")
	}
}

func TestEvalBufferReuseNoAlloc(t *testing.T) {
	st := testStore(t, 1, 2, 8)
	tu := &Tuple{Det: types.Row{types.Null, types.NewInt(2)},
		Rand: []RandRef{{Slot: 0, SeedID: 0, Out: 0}}}
	buf := make(types.Row, 2)
	b := Bind(st, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := tu.Eval(b, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Eval with buffer allocates %v/run", allocs)
	}
}

func TestCloneIndependence(t *testing.T) {
	tu := &Tuple{
		Det:  types.Row{types.NewInt(1)},
		Rand: []RandRef{{Slot: 0, SeedID: 2}},
		Pres: []PresVec{{SeedID: 2, Bits: []bool{true}}},
	}
	cp := tu.Clone()
	cp.Det[0] = types.NewInt(9)
	cp.Rand[0].SeedID = 5
	cp.Pres[0].SeedID = 5
	if tu.Det[0].Int() != 1 || tu.Rand[0].SeedID != 2 || tu.Pres[0].SeedID != 2 {
		t.Fatal("Clone aliases the original")
	}
}
