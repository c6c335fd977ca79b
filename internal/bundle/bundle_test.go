package bundle

import (
	"errors"
	"testing"

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
	p := PresVec{SeedID: 1, Lo: 4, Bits: []bool{true, false},
		Sparse: map[uint64]bool{1: true, 2: false}}
	cases := []struct {
		pos         uint64
		wantPresent bool
		wantCovered bool
	}{
		{4, true, true}, {5, false, true}, {1, true, true}, {2, false, true},
		{0, false, false}, {6, false, false},
	}
	for _, tc := range cases {
		got, ok := p.At(tc.pos)
		if got != tc.wantPresent || ok != tc.wantCovered {
			t.Errorf("At(%d) = %v,%v want %v,%v", tc.pos, got, ok, tc.wantPresent, tc.wantCovered)
		}
	}
	if !p.Any() {
		t.Fatal("Any should be true")
	}
	empty := PresVec{Bits: []bool{false}, Sparse: map[uint64]bool{9: false}}
	if empty.Any() {
		t.Fatal("Any on all-false must be false")
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
	b := Bind(st, 0).WithOverride(0, 5)
	row, present, err := tu.Eval(b, nil)
	if err != nil || !present {
		t.Fatal(err)
	}
	want, _ := st.MustGet(0).Window.Get(5)
	if !row[0].Equal(want[0]) {
		t.Fatalf("override not applied: %v vs %v", row[0], want[0])
	}
	// Override of a different seed must not affect this one.
	b2 := Bind(st, 1).WithOverride(99, 5)
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
		Pres: []PresVec{{SeedID: 0, Lo: 0, Bits: []bool{true, false, true, false, true, true, true, true}}},
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

func TestEvalNotMaterialized(t *testing.T) {
	st := testStore(t, 1, 2, 4)
	st.MustGet(0).Assign[0] = 100 // outside window
	tu := &Tuple{Det: types.Row{types.Null}, Rand: []RandRef{{Slot: 0, SeedID: 0, Out: 0}}}
	_, _, err := tu.Eval(Bind(st, 0), nil)
	var nm *ErrNotMaterialized
	if !errors.As(err, &nm) {
		t.Fatalf("err = %v, want ErrNotMaterialized", err)
	}
	if nm.SeedID != 0 || nm.Pos != 100 {
		t.Fatalf("nm = %+v", nm)
	}
	// Presence vector misses must also trigger the error.
	tu2 := &Tuple{Det: types.Row{types.NewInt(1)},
		Pres: []PresVec{{SeedID: 0, Lo: 0, Bits: []bool{true, true}}}}
	st.MustGet(0).Assign[1] = 50
	_, _, err = tu2.Eval(Bind(st, 1), nil)
	if !errors.As(err, &nm) {
		t.Fatalf("pres miss err = %v", err)
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
