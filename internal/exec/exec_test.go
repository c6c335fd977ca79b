package exec

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vg"
)

// coinVG deterministically maps stream elements to "heads"/"tails" floats
// (0 or 1) so Split/Select tests can predict distinct values.
type coinVG struct{}

func (coinVG) Name() string           { return "Coin" }
func (coinVG) Arity() int             { return 0 }
func (coinVG) OutKinds() []types.Kind { return []types.Kind{types.KindFloat} }
func (coinVG) Generate(_ []types.Value, sub *prng.Sub) ([]types.Value, error) {
	if sub.Float64() < 0.5 {
		return []types.Value{types.NewFloat(0)}, nil
	}
	return []types.Value{types.NewFloat(1)}, nil
}

func testCatalog() *storage.Catalog {
	cat := storage.NewCatalog()

	means := storage.NewTable("means", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "m", Kind: types.KindFloat},
	))
	for i, m := range []float64{3, 4, 5} {
		means.MustAppend(types.Row{types.NewInt(int64(i + 1)), types.NewFloat(m)})
	}
	cat.Put(means)

	dept := storage.NewTable("dept", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "dname", Kind: types.KindString},
	))
	dept.MustAppend(types.Row{types.NewInt(1), types.NewString("a")})
	dept.MustAppend(types.Row{types.NewInt(2), types.NewString("b")})
	dept.MustAppend(types.Row{types.NewInt(2), types.NewString("c")})
	cat.Put(dept)
	return cat
}

func normalFunc(t *testing.T) vg.Func {
	t.Helper()
	f, ok := vg.NewRegistry().Lookup("Normal")
	if !ok {
		t.Fatal("Normal missing")
	}
	return f
}

// buildLossPlan is the paper §2 Losses pipeline: Scan(means) -> Seed(Normal)
// -> Instantiate.
func buildLossPlan(t *testing.T, ws *Workspace) Node {
	t.Helper()
	scan, err := NewScan(ws.Catalog, "means", "means")
	if err != nil {
		t.Fatal(err)
	}
	seed, err := NewSeed(scan, normalFunc(t),
		[]expr.Expr{expr.C("means.m"), expr.F(1.0)}, []string{"losses.val"})
	if err != nil {
		t.Fatal(err)
	}
	return &Instantiate{Child: seed}
}

func TestScan(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	scan, err := NewScan(cat, "means", "mm")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ws.Run(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("rows = %d", len(out))
	}
	if scan.Schema().Lookup("mm.cid") < 0 {
		t.Fatalf("alias not applied: %s", scan.Schema())
	}
	if _, err := NewScan(cat, "missing", ""); err == nil {
		t.Fatal("missing table must error")
	}
}

func TestSeedAndInstantiate(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	plan := buildLossPlan(t, ws)
	out, err := ws.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("tuples = %d", len(out))
	}
	if ws.Seeds.Len() != 3 {
		t.Fatalf("seeds = %d", ws.Seeds.Len())
	}
	for i, tu := range out {
		if len(tu.Rand) != 1 {
			t.Fatalf("tuple %d rand refs = %d", i, len(tu.Rand))
		}
		s := ws.Seeds.MustGet(tu.Rand[i*0].SeedID)
		if len(s.Window.Vals) != 8 {
			t.Fatalf("window size = %d", len(s.Window.Vals))
		}
		// Seed parameters are the per-customer mean and variance 1.
		wantMean := tu.Det[1].Float()
		if s.Params[0].Float() != wantMean || s.Params[1].Float() != 1 {
			t.Fatalf("params = %v", s.Params)
		}
	}
	// Schema: means.cid, means.m, losses.val.
	if plan.Schema().Lookup("losses.val") != 2 {
		t.Fatalf("schema = %s", plan.Schema())
	}
}

func TestSeedRejectsRandomParams(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	inner := buildLossPlan(t, ws)
	// Seeding a second VG with the *random* losses.val as parameter must fail.
	seed2, err := NewSeed(inner, normalFunc(t),
		[]expr.Expr{expr.C("losses.val"), expr.F(1.0)}, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Run(&Instantiate{Child: seed2}); err == nil {
		t.Fatal("random VG parameter must be rejected")
	}
}

func TestSelectDeterministic(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	plan := buildLossPlan(t, ws)
	sel := &Select{Child: plan, Pred: expr.B(expr.OpLt, expr.C("means.cid"), expr.I(3))}
	out, err := ws.Run(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("rows = %d, want 2", len(out))
	}
}

func TestSelectOnRandomAttrBuildsPresVec(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 64)
	plan := buildLossPlan(t, ws)
	// losses.val > mean: true for ~half the positions of each seed.
	sel := &Select{Child: plan, Pred: expr.B(expr.OpGt, expr.C("losses.val"), expr.C("means.m"))}
	out, err := ws.Run(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("rows = %d", len(out))
	}
	for _, tu := range out {
		if len(tu.Pres) != 1 {
			t.Fatalf("pres vecs = %d", len(tu.Pres))
		}
		pv := tu.Pres[0]
		s := ws.Seeds.MustGet(pv.SeedID)
		trueCount := 0
		for i, b := range pv.Bits {
			vals, _ := s.Window.Get(pv.Lo + uint64(i))
			want := vals[0].Float() > s.Params[0].Float()
			if b != want {
				t.Fatalf("bit %d = %v, value %v mean %v", i, b, vals[0], s.Params[0])
			}
			if b {
				trueCount++
			}
		}
		if trueCount == 0 || trueCount == len(pv.Bits) {
			t.Fatalf("suspicious presence distribution: %d/%d", trueCount, len(pv.Bits))
		}
	}
}

// TestSelectKeepsAllFalseTuples: a random predicate false at every window
// position keeps its tuple (absent everywhere in the window), and the
// presence lineage answers for positions beyond the window from the VG
// output row there.
func TestSelectKeepsAllFalseTuples(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 16)
	plan := buildLossPlan(t, ws)
	// Every mean is at most 5 with sd 1; val > mean+3 is rare enough that
	// some seeds have no true bit in a 16-value window.
	sel := &Select{Child: plan, Pred: expr.B(expr.OpGt, expr.C("losses.val"), expr.B(expr.OpAdd, expr.C("means.m"), expr.F(3)))}
	out, err := ws.Run(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("rows = %d, want all 3 kept", len(out))
	}
	allFalse := 0
	for _, tu := range out {
		if !slices.Contains(tu.Pres[0].Bits, true) {
			allFalse++
		}
	}
	if allFalse == 0 {
		t.Fatal("no tuple is absent throughout the window; the test covers nothing")
	}
	for _, tu := range out {
		pv := tu.Pres[0]
		s := ws.Seeds.MustGet(pv.SeedID)
		if pv.Lineage == nil {
			t.Fatal("a random Select must attach lineage")
		}
		// Find a beyond-window position where the predicate holds and one
		// where it fails; Eval must agree with the raw value.
		seen := map[bool]bool{}
		for pos := uint64(16); len(seen) < 2; pos++ {
			vals, _ := s.ValueAt(pos)
			want := vals[0].Float() > s.Params[0].Float()+3
			if seen[want] {
				continue
			}
			seen[want] = true
			s.Assign = []uint64{0}
			s.SetAssign(0, pos, vals)
			_, present, err := tu.Eval(bundle.Bind(ws.Seeds, 0), make(types.Row, 4))
			if err != nil || present != want {
				t.Fatalf("seed %d pos %d: present=%v err=%v, want %v", pv.SeedID, pos, present, err, want)
			}
		}
	}
}

func TestSelectMultiSeedPredicateRejected(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	scan, _ := NewScan(cat, "means", "means")
	seed1, err := NewSeed(scan, normalFunc(t), []expr.Expr{expr.C("m"), expr.F(1)}, []string{"v1"})
	if err != nil {
		t.Fatal(err)
	}
	seed2, err := NewSeed(seed1, normalFunc(t), []expr.Expr{expr.C("m"), expr.F(1)}, []string{"v2"})
	if err != nil {
		t.Fatal(err)
	}
	plan := &Select{Child: &Instantiate{Child: seed2},
		Pred: expr.B(expr.OpGt, expr.C("v1"), expr.C("v2"))}
	if _, err := ws.Run(plan); err == nil || !strings.Contains(err.Error(), "GibbsLooper") {
		t.Fatalf("multi-seed predicate: err = %v", err)
	}
}

func TestProjectKeepsLineage(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 16)
	plan := buildLossPlan(t, ws)
	sel := &Select{Child: plan, Pred: expr.B(expr.OpGt, expr.C("losses.val"), expr.F(-100))}
	proj, err := NewProject(sel, "losses.val", "means.cid")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ws.Run(proj)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("rows = %d", len(out))
	}
	for _, tu := range out {
		if len(tu.Rand) != 1 || tu.Rand[0].Slot != 0 {
			t.Fatalf("rand refs after project: %+v", tu.Rand)
		}
		if len(tu.Pres) != 1 {
			t.Fatalf("pres lost in project")
		}
		if len(tu.Det) != 2 {
			t.Fatalf("width = %d", len(tu.Det))
		}
	}
	if _, err := NewProject(plan, "nope"); err == nil {
		t.Fatal("bad column must error")
	}
}

func TestHashJoinDeterministic(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	left := buildLossPlan(t, ws)
	right, _ := NewScan(cat, "dept", "dept")
	join, err := NewHashJoin(left, right, []string{"means.cid"}, []string{"dept.cid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ws.Run(join)
	if err != nil {
		t.Fatal(err)
	}
	// cid 1 matches 1 dept row, cid 2 matches 2, cid 3 matches 0.
	if len(out) != 3 {
		t.Fatalf("join rows = %d, want 3", len(out))
	}
	for _, tu := range out {
		if len(tu.Rand) != 1 {
			t.Fatalf("rand lost in join")
		}
		if len(tu.Det) != join.Schema().Len() {
			t.Fatalf("width mismatch")
		}
	}
}

func TestHashJoinResidual(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	left, _ := NewScan(cat, "means", "means")
	right, _ := NewScan(cat, "dept", "dept")
	join, err := NewHashJoin(left, right, []string{"means.cid"}, []string{"dept.cid"},
		expr.B(expr.OpEq, expr.C("dept.dname"), expr.S("b")))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ws.Run(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("residual join rows = %d, want 1", len(out))
	}
}

func TestHashJoinOnRandomKeyRejected(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	left := buildLossPlan(t, ws)
	right, _ := NewScan(cat, "dept", "dept")
	join, err := NewHashJoin(left, right, []string{"losses.val"}, []string{"dept.cid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Run(join); err == nil || !strings.Contains(err.Error(), "Split") {
		t.Fatalf("random join key: err = %v", err)
	}
}

func TestSplitConvertsRandomToPresence(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 32)
	scan, _ := NewScan(cat, "means", "means")
	seed, err := NewSeed(scan, coinVG{}, nil, []string{"coin"})
	if err != nil {
		t.Fatal(err)
	}
	split := &Split{Child: &Instantiate{Child: seed}, Col: "coin"}
	out, err := ws.Run(split)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 3 tuples splits into 2 (values 0 and 1, both present in
	// 32 coin flips with overwhelming probability).
	if len(out) != 6 {
		t.Fatalf("split rows = %d, want 6", len(out))
	}
	for _, tu := range out {
		if len(tu.Rand) != 0 {
			t.Fatalf("split output still random: %+v", tu.Rand)
		}
		if len(tu.Pres) != 1 {
			t.Fatalf("split output pres = %d", len(tu.Pres))
		}
		v := tu.Det[2].Float()
		if v != 0 && v != 1 {
			t.Fatalf("split value = %v", v)
		}
		// Presence bits must match the window contents exactly.
		s := ws.Seeds.MustGet(tu.Pres[0].SeedID)
		for i, b := range tu.Pres[0].Bits {
			vals, _ := s.Window.Get(tu.Pres[0].Lo + uint64(i))
			if b != vals[0].Equal(tu.Det[2]) {
				t.Fatalf("bit %d inconsistent with window", i)
			}
		}
	}
	// Complementary coverage: for each seed, the two tuples' bits partition
	// all positions.
	bySeed := map[uint64][]*bundle.Tuple{}
	for _, tu := range out {
		bySeed[tu.Pres[0].SeedID] = append(bySeed[tu.Pres[0].SeedID], tu)
	}
	for id, tus := range bySeed {
		if len(tus) != 2 {
			t.Fatalf("seed %d split into %d tuples", id, len(tus))
		}
		for i := range tus[0].Pres[0].Bits {
			if tus[0].Pres[0].Bits[i] == tus[1].Pres[0].Bits[i] {
				t.Fatalf("seed %d bit %d not complementary", id, i)
			}
		}
	}
	// Split after which a join on the attribute works.
	other := storage.NewTable("coins", types.NewSchema(
		types.Column{Name: "side", Kind: types.KindFloat},
		types.Column{Name: "label", Kind: types.KindString},
	))
	other.MustAppend(types.Row{types.NewFloat(0), types.NewString("tails")})
	other.MustAppend(types.Row{types.NewFloat(1), types.NewString("heads")})
	cat.Put(other)
	scan2, _ := NewScan(cat, "coins", "coins")
	join, err := NewHashJoin(split, scan2, []string{"coin"}, []string{"coins.side"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jout, err := ws.Run(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(jout) != 6 {
		t.Fatalf("join-after-split rows = %d", len(jout))
	}
}

func TestSplitPassesDeterministicTuples(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	scan, _ := NewScan(cat, "means", "means")
	split := &Split{Child: scan, Col: "means.m"}
	out, err := ws.Run(split)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("rows = %d", len(out))
	}
}

func TestDeterministicSubplanCaching(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 8)
	scan, _ := NewScan(cat, "means", "means")
	first, err := ws.Run(scan)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the underlying catalog table; the cached materialization must
	// be served on re-run (the paper materializes deterministic parts so
	// re-runs skip them).
	cat.MustGet("means").MustAppend(types.Row{types.NewInt(99), types.NewFloat(9)})
	second, err := ws.Run(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("cache miss: %d vs %d", len(first), len(second))
	}
}

func TestSeedOutputCountValidation(t *testing.T) {
	cat := testCatalog()
	scan, _ := NewScan(cat, "means", "means")
	if _, err := NewSeed(scan, coinVG{}, nil, []string{"a", "b"}); err == nil {
		t.Fatal("output name count mismatch must error")
	}
	if _, err := NewSeed(scan, normalFunc(t), []expr.Expr{expr.F(1)}, []string{"v"}); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestJoinValidation(t *testing.T) {
	cat := testCatalog()
	l, _ := NewScan(cat, "means", "m")
	r, _ := NewScan(cat, "dept", "d")
	if _, err := NewHashJoin(l, r, nil, nil, nil); err == nil {
		t.Fatal("empty keys must error")
	}
	if _, err := NewHashJoin(l, r, []string{"m.cid"}, []string{"d.nope"}, nil); err == nil {
		t.Fatal("bad right key must error")
	}
	if _, err := NewHashJoin(l, r, []string{"m.nope"}, []string{"d.cid"}, nil); err == nil {
		t.Fatal("bad left key must error")
	}
}
