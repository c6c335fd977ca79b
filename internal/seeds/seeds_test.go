package seeds

import (
	"bytes"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/prng"
	"repro/internal/types"
	"repro/internal/vg"
)

// newTestStore builds a store of Normal-VG seeds; t may be nil when called
// from property functions, in which case errors panic.
func newTestStore(t *testing.T, nSeeds, nVersions int) (*Store, prng.Stream) {
	if t != nil {
		t.Helper()
	}
	reg := vg.NewRegistry()
	normal, _ := reg.Lookup("Normal")
	master := prng.NewStream(42)
	st := NewStore()
	for i := 0; i < nSeeds; i++ {
		s := st.Alloc(master, normal, []types.Value{types.NewFloat(float64(i + 3)), types.NewFloat(1)})
		if err := s.Materialize(0, 16, nil); err != nil {
			if t != nil {
				t.Fatal(err)
			}
			panic(err)
		}
	}
	st.InitAssign(nVersions)
	return st, master
}

func TestAllocAssignsSequentialHandles(t *testing.T) {
	st, _ := newTestStore(t, 5, 4)
	ids := st.IDs()
	if len(ids) != 5 {
		t.Fatalf("Len = %d", len(ids))
	}
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("handle %d at position %d", id, i)
		}
	}
}

func TestWindowGet(t *testing.T) {
	w := Window{Lo: 10, Vals: [][]types.Value{{types.NewFloat(1)}, {types.NewFloat(2)}}}
	if v, ok := w.Get(10); !ok || v[0].Float() != 1 {
		t.Fatal("Get(10) failed")
	}
	if v, ok := w.Get(11); !ok || v[0].Float() != 2 {
		t.Fatal("Get(11) failed")
	}
	if _, ok := w.Get(12); ok {
		t.Fatal("Get(12) should miss")
	}
	if _, ok := w.Get(5); ok {
		t.Fatal("Get(5) should miss")
	}
	if w.End() != 12 || !w.Contains(11) || w.Contains(12) || w.Contains(9) {
		t.Fatalf("End = %d, Contains(9/11/12) = %v/%v/%v", w.End(), w.Contains(9), w.Contains(11), w.Contains(12))
	}
}

func TestMaterializeMatchesValueAt(t *testing.T) {
	st, _ := newTestStore(t, 1, 2)
	s := st.MustGet(0)
	for pos := uint64(0); pos < 16; pos++ {
		want, err := s.ValueAt(pos)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.Window.Get(pos)
		if !ok || !got[0].Equal(want[0]) {
			t.Fatalf("window pos %d = %v, want %v", pos, got, want)
		}
	}
}

func TestMaterializeRejectsSparse(t *testing.T) {
	st, _ := newTestStore(t, 1, 4)
	s := st.MustGet(0)
	if err := s.Materialize(16, 8, []uint64{0, 1}); err == nil {
		t.Fatal("a sparse position list must be rejected")
	}
	if s.Window.Lo != 0 || len(s.Window.Vals) != 16 {
		t.Fatalf("rejected call changed the window: lo %d len %d", s.Window.Lo, len(s.Window.Vals))
	}
}

// TestSampleMatchesValueAt: on-demand draws, inside and far beyond the
// window, are bit-identical to the unprepared Generate path, for every
// built-in VG shape (one and several outputs).
func TestSampleMatchesValueAt(t *testing.T) {
	reg := vg.NewRegistry()
	master := prng.NewStream(5)
	st := NewStore()
	normal, _ := reg.Lookup("Normal")
	mn, _ := reg.Lookup("MultiNormal2")
	for _, s := range []*TSSeed{
		st.Alloc(master, normal, []types.Value{types.NewFloat(3), types.NewFloat(2)}),
		st.Alloc(master, mn, []types.Value{types.NewFloat(1), types.NewFloat(2), types.NewFloat(1), types.NewFloat(3), types.NewFloat(0.5)}),
	} {
		if err := s.Materialize(0, 8, nil); err != nil {
			t.Fatal(err)
		}
		dst := make([]types.Value, len(s.Gen.OutKinds()))
		for _, pos := range []uint64{0, 7, 8, 1000, 1 << 40} {
			want, err := s.ValueAt(pos)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Sample(pos, dst); err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if !dst[k].Equal(want[k]) {
					t.Fatalf("seed %d pos %d out %d: Sample %v, ValueAt %v", s.ID, pos, k, dst[k], want[k])
				}
			}
		}
		if got := testing.AllocsPerRun(100, func() { _ = s.Sample(1234, dst) }); got != 0 {
			t.Fatalf("seed %d: Sample allocates %v times per draw", s.ID, got)
		}
	}
}

// TestRowCacheBeyondWindow: a position assigned outside the window keeps
// its row in the per-version cache, cloning carries the cache with the
// assignments, InitAssign drops it, and FillRows redraws it.
func TestRowCacheBeyondWindow(t *testing.T) {
	st, _ := newTestStore(t, 1, 3)
	s := st.MustGet(0)
	if s.Rows != nil {
		t.Fatal("the row cache must stay nil while every assignment is in the window")
	}
	far, _ := s.ValueAt(40)
	scratch := []types.Value{far[0]}
	s.SetAssign(1, 40, scratch)
	scratch[0] = types.NewFloat(-1) // the cache must hold its own copy
	s.SetAssign(2, 5, []types.Value{types.NewFloat(-2)})
	if row, ok := s.Row(1); !ok || !row[0].Equal(far[0]) {
		t.Fatalf("Row(1) = %v, %v; want %v", row, ok, far)
	}
	if row, _ := s.Row(2); !row[0].Equal(s.Window.Vals[5][0]) {
		t.Fatal("an in-window assignment must read the window")
	}
	if err := st.CloneVersions([]int{1, 0}, 4); err != nil {
		t.Fatal(err)
	}
	for v, pos := range []uint64{40, 40, 0, 0} {
		row, ok := s.Row(v)
		want, _ := s.ValueAt(pos)
		if s.Assign[v] != pos || !ok || !row[0].Equal(want[0]) {
			t.Fatalf("clone %d: pos %d row %v, want pos %d row %v", v, s.Assign[v], row, pos, want)
		}
	}
	st.InitAssign(20)
	if s.Rows != nil {
		t.Fatal("InitAssign must drop the row cache")
	}
	if _, ok := s.Row(17); ok {
		t.Fatal("position 17 is outside the window and not cached yet")
	}
	if err := s.FillRows(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 20; v++ {
		row, ok := s.Row(v)
		want, _ := s.ValueAt(uint64(v))
		if !ok || !row[0].Equal(want[0]) {
			t.Fatalf("version %d after FillRows: %v, want %v", v, row, want)
		}
	}
}

func TestInitAssign(t *testing.T) {
	st, _ := newTestStore(t, 3, 4)
	for _, id := range st.IDs() {
		s := st.MustGet(id)
		for v := 0; v < 4; v++ {
			if s.Assign[v] != uint64(v) {
				t.Fatalf("seed %d version %d assigned %d", id, v, s.Assign[v])
			}
		}
		if s.MaxUsed != 3 {
			t.Fatalf("MaxUsed = %d", s.MaxUsed)
		}
	}
}

func TestCloneVersionsBlockLayout(t *testing.T) {
	// Fig 1(b): 4 versions, elite {1,3} -> new assignments [a1,a1,a3,a3].
	st, _ := newTestStore(t, 2, 4)
	s := st.MustGet(0)
	s.Assign = []uint64{10, 11, 12, 13}
	st.MustGet(1).Assign = []uint64{20, 21, 22, 23}
	if err := st.CloneVersions([]int{1, 3}, 4); err != nil {
		t.Fatal(err)
	}
	want := []uint64{11, 11, 13, 13}
	for v, w := range want {
		if s.Assign[v] != w {
			t.Fatalf("Assign = %v, want %v", s.Assign, want)
		}
	}
	if got := st.MustGet(1).Assign; got[0] != 21 || got[3] != 23 {
		t.Fatalf("second seed Assign = %v", got)
	}
}

func TestCloneVersionsResize(t *testing.T) {
	st, _ := newTestStore(t, 1, 4)
	s := st.MustGet(0)
	s.Assign = []uint64{10, 11, 12, 13}
	// Grow to 6 versions from elite {0,2}.
	if err := st.CloneVersions([]int{0, 2}, 6); err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 10, 10, 12, 12, 12}
	for v, w := range want {
		if s.Assign[v] != w {
			t.Fatalf("Assign = %v, want %v", s.Assign, want)
		}
	}
	// Shrink to 2.
	if err := st.CloneVersions([]int{1, 5}, 2); err != nil {
		t.Fatal(err)
	}
	if s.Assign[0] != 10 || s.Assign[1] != 12 {
		t.Fatalf("shrunk Assign = %v", s.Assign)
	}
}

func TestCloneVersionsErrors(t *testing.T) {
	st, _ := newTestStore(t, 1, 4)
	if err := st.CloneVersions(nil, 4); err == nil {
		t.Fatal("empty elite must error")
	}
	if err := st.CloneVersions([]int{9}, 4); err == nil {
		t.Fatal("out-of-range elite must error")
	}
	if err := st.CloneVersions([]int{0}, 0); err == nil {
		t.Fatal("zero target must error")
	}
}

func TestCloneVersionsProperty(t *testing.T) {
	// Property: after cloning, every assignment column value comes from an
	// elite version's previous value.
	f := func(eliteRaw []uint8, newNRaw uint8) bool {
		st, _ := newTestStore(nil, 1, 8)
		s := st.MustGet(0)
		for v := range s.Assign {
			s.Assign[v] = uint64(100 + v)
		}
		if len(eliteRaw) == 0 {
			return true
		}
		elite := make([]int, 0, len(eliteRaw))
		seen := map[int]bool{}
		for _, e := range eliteRaw {
			v := int(e) % 8
			if !seen[v] {
				seen[v] = true
				elite = append(elite, v)
			}
		}
		newN := int(newNRaw)%16 + 1
		old := append([]uint64(nil), s.Assign...)
		if err := st.CloneVersions(elite, newN); err != nil {
			return false
		}
		if len(s.Assign) != newN {
			return false
		}
		allowed := map[uint64]bool{}
		for _, e := range elite {
			allowed[old[e]] = true
		}
		for _, a := range s.Assign {
			if !allowed[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, master := newTestStore(t, 4, 3)
	s1 := st.MustGet(1)
	s1.MaxUsed = 12
	s1.Assign = []uint64{4, 9, 2}
	if err := s1.Materialize(13, 5, nil); err != nil {
		t.Fatal(err)
	}
	if err := s1.FillRows(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, vg.NewRegistry(), master)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 4 {
		t.Fatalf("loaded Len = %d", back.Len())
	}
	b1 := back.MustGet(1)
	if b1.MaxUsed != 12 || b1.Assign[1] != 9 {
		t.Fatalf("bookkeeping lost: %+v", b1)
	}
	// Window values and the rows of assigned positions outside the window
	// must regenerate identically.
	for _, pos := range []uint64{13, 17} {
		want, _ := s1.Window.Get(pos)
		got, ok := b1.Window.Get(pos)
		if !ok || !got[0].Equal(want[0]) {
			t.Fatalf("pos %d: %v vs %v", pos, got, want)
		}
	}
	for v := range s1.Assign {
		want, _ := s1.Row(v)
		got, ok := b1.Row(v)
		if !ok || !got[0].Equal(want[0]) {
			t.Fatalf("version %d: %v vs %v", v, got, want)
		}
	}
	// Streams derived identically: new values also match.
	w1, _ := s1.ValueAt(1000)
	w2, _ := b1.ValueAt(1000)
	if !w1[0].Equal(w2[0]) {
		t.Fatal("stream derivation lost in round trip")
	}
}

func TestSaveLoadFile(t *testing.T) {
	st, master := newTestStore(t, 2, 2)
	path := filepath.Join(t.TempDir(), "seeds.bin")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path, vg.NewRegistry(), master)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d seeds", back.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), vg.NewRegistry(), prng.NewStream(1)); err == nil {
		t.Fatal("garbage must not load")
	}
}

// TestLoadRejectsSparseHandles: the store indexes seeds by handle, so a
// file whose handles skip a value must not load.
func TestLoadRejectsSparseHandles(t *testing.T) {
	st, master := newTestStore(t, 2, 2)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Header: magic (4 bytes), count and next handle (8 each); the first
	// seed's handle follows. Renumber seed 0 as 5.
	b := buf.Bytes()
	b[20] = 5
	if _, err := Load(bytes.NewReader(b), vg.NewRegistry(), master); err == nil {
		t.Fatal("a file with handle 5 in slot 0 must not load")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStore().MustGet(7)
}
