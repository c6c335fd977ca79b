package gibbs

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bundle"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/vg"
)

// TestDeltaAggregateEqualsRecompute is the central engine invariant: after
// an entire tail-sampling run maintained per-version aggregates by deltas
// (only re-evaluating tuples affected by each seed update), a from-scratch
// recomputation over all tuples must give the same totals.
func TestDeltaAggregateEqualsRecompute(t *testing.T) {
	cat := lossCatalog([]float64{3, 4, 5, 6, 7})
	ws := exec.NewWorkspace(cat, prng.NewStream(99), 1024)
	plan := lossPlan(t, ws, 1)
	q := sumQuery()
	cfg := Config{N: 30, M: 3, P: 0.02, L: 15}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	lp := &looper{ws: ws, plan: plan, q: q, cfg: cfg}
	if err := lp.init(); err != nil {
		t.Fatal(err)
	}
	res, err := lp.run()
	if err != nil {
		t.Fatal(err)
	}
	// Recompute every version's aggregate directly from the final seed
	// assignments and compare with the incrementally maintained states.
	for v := range lp.states {
		want := lp.base
		b := bundle.Bind(ws.Seeds, v)
		for _, tu := range lp.rand {
			s, c, err := lp.contrib(tu, b, lp.buf)
			if err != nil {
				t.Fatal(err)
			}
			want.Add(s, c)
		}
		got := lp.states[v]
		if math.Abs(got.Sum-want.Sum) > 1e-6*(1+math.Abs(want.Sum)) || got.Count != want.Count {
			t.Fatalf("version %d: incremental (%g,%d) vs recomputed (%g,%d)",
				v, got.Sum, got.Count, want.Sum, want.Count)
		}
		if math.Abs(res.TailSamples[v]-want.Value(q.Agg.Kind)) > 1e-6 {
			t.Fatalf("version %d: reported %g vs recomputed %g", v, res.TailSamples[v], want.Value(q.Agg.Kind))
		}
	}
}

// TestMaxUsedMonotone checks TS-seed bookkeeping: MaxUsed only advances,
// and every final assignment is a materialized, already-consumed position.
func TestMaxUsedMonotone(t *testing.T) {
	cat := lossCatalog([]float64{3, 4, 5})
	ws := exec.NewWorkspace(cat, prng.NewStream(55), 256)
	plan := lossPlan(t, ws, 1)
	res, err := Run(ws, plan, sumQuery(), Config{N: 20, M: 3, P: 0.02, L: 10})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	for _, id := range ws.Seeds.IDs() {
		s := ws.Seeds.MustGet(id)
		for v, pos := range s.Assign {
			if pos > s.MaxUsed {
				t.Fatalf("seed %d version %d assigned %d beyond MaxUsed %d", id, v, pos, s.MaxUsed)
			}
			if !s.Window.Contains(pos) {
				t.Fatalf("seed %d version %d assigned unmaterialized position %d", id, v, pos)
			}
		}
	}
}

// TestCutoffsMatchTailProbabilityTrajectory: theta_i estimates the
// (1 - p^{i/m})-quantile; for a normal sum we can check the whole
// trajectory against analytic quantiles (averaged over runs).
func TestCutoffsMatchTailProbabilityTrajectory(t *testing.T) {
	meansVals := []float64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	mu, sigma := 65.0, math.Sqrt(10)
	const runs = 8
	const m = 3
	avg := make([]float64, m)
	for r := 0; r < runs; r++ {
		cat := lossCatalog(meansVals)
		ws := exec.NewWorkspace(cat, prng.NewStream(uint64(300+r)), 4096)
		plan := lossPlan(t, ws, 1)
		res, err := Run(ws, plan, sumQuery(), Config{N: 150, M: m, P: 0.008, L: 50})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Cutoffs {
			avg[i] += c / runs
		}
	}
	for i := 0; i < m; i++ {
		pi := math.Pow(0.008, float64(i+1)/m)
		want := mu + sigma*quantileZ(1-pi)
		if math.Abs(avg[i]-want) > 1.0 {
			t.Errorf("step %d: mean cutoff %g, analytic %g", i+1, avg[i], want)
		}
	}
}

// quantileZ is a local standard normal quantile (avoids importing stats
// into this white-box test file twice; thin wrapper).
func quantileZ(p float64) float64 {
	// Newton iteration on the CDF starting from a rough logit guess.
	x := 4.91 * (math.Pow(p, 0.14) - math.Pow(1-p, 0.14))
	for i := 0; i < 60; i++ {
		f := 0.5*math.Erfc(-x/math.Sqrt2) - p
		d := math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
		if d == 0 {
			break
		}
		x -= f / d
	}
	return x
}

// TestSeedSharedAcrossTuples exercises the 1-to-m join case of §4.1: one
// TS-seed referenced by several Gibbs tuples must be updated consistently
// — all affected tuples see the same assignment.
func TestSeedSharedAcrossTuples(t *testing.T) {
	cat := lossCatalog([]float64{4, 5})
	ws := exec.NewWorkspace(cat, prng.NewStream(77), 2048)
	plan := sharedSeedPlan(t, ws)
	res, err := Run(ws, plan, Query{Agg: exec.AggSpec{Kind: exec.AggSum, Expr: expr.C("val")}},
		Config{N: 40, M: 2, P: 0.02, L: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Q = 2 * (X1 + X2) since each X appears twice after the cross join:
	// mean 18, sd 2*sqrt(2). Check the quantile band.
	want := 18 + 2*math.Sqrt2*quantileZ(0.98)
	if math.Abs(res.Quantile-want) > 2.0 {
		t.Fatalf("shared-seed quantile = %g, want ≈ %g", res.Quantile, want)
	}
	for _, s := range res.TailSamples {
		if s < res.Quantile {
			t.Fatalf("tail sample below cutoff")
		}
	}
}

// sharedSeedPlan crosses Instantiate(Seed(means)) with a second scan of
// means, so every TS-seed appears in one tuple per means row.
func sharedSeedPlan(t testing.TB, ws *exec.Workspace) exec.Node {
	t.Helper()
	normal, _ := vg.NewRegistry().Lookup("Normal")
	scan, err := exec.NewScan(ws.Catalog, "means", "means")
	if err != nil {
		t.Fatal(err)
	}
	seed, err := exec.NewSeed(scan, normal, []expr.Expr{expr.C("m"), expr.F(1)}, []string{"val"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := exec.NewScan(ws.Catalog, "means", "w")
	if err != nil {
		t.Fatal(err)
	}
	return exec.NewCross(&exec.Instantiate{Child: seed}, w, nil)
}

// twoSeedPlan gives every means row two random attributes, a and b, drawn
// from two different TS-seeds.
func twoSeedPlan(t testing.TB, ws *exec.Workspace) exec.Node {
	t.Helper()
	normal, _ := vg.NewRegistry().Lookup("Normal")
	scan, err := exec.NewScan(ws.Catalog, "means", "means")
	if err != nil {
		t.Fatal(err)
	}
	seed1, err := exec.NewSeed(scan, normal, []expr.Expr{expr.C("means.m"), expr.F(1)}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	seed2, err := exec.NewSeed(seed1, normal, []expr.Expr{expr.C("means.m"), expr.F(1)}, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	return &exec.Instantiate{Child: seed2}
}

// TestSeedIndex checks the looper's seed-to-tuple index: handles strictly
// ascend, each handle's tuples strictly ascend, the (handle, tuple) pairs
// are exactly the tuples' SeedIDs, and a replenishing run rebuilds the
// same index. The two-seed plan selects on b, so its tuples read seed b
// through both a random reference and a presence vector.
func TestSeedIndex(t *testing.T) {
	means := []float64{4, 5, 6}
	for _, tc := range []struct {
		name              string
		plan              func(testing.TB, *exec.Workspace) exec.Node
		perTuple, perSeed int
	}{
		{"shared", sharedSeedPlan, 1, len(means)},
		{"two-seed", func(t testing.TB, ws *exec.Workspace) exec.Node {
			return &exec.Select{Child: twoSeedPlan(t, ws), Pred: expr.B(expr.OpGt, expr.C("b"), expr.F(4.5))}
		}, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := exec.NewWorkspace(lossCatalog(means), prng.NewStream(31), 64)
			lp := &looper{ws: ws, plan: tc.plan(t, ws), q: Query{Agg: exec.AggSpec{Kind: exec.AggCount}}, cfg: Config{N: 8}}
			if err := lp.init(); err != nil {
				t.Fatal(err)
			}
			ix := lp.seeds
			if len(ix.offs) != len(ix.handles)+1 || ix.offs[0] != 0 || ix.offs[len(ix.handles)] != len(ix.tuples) {
				t.Fatalf("malformed offsets %v for %d handles, %d tuples", ix.offs, len(ix.handles), len(ix.tuples))
			}
			if len(ix.tuples) != tc.perTuple*len(lp.rand) {
				t.Fatalf("%d index entries for %d tuples, want %d per tuple", len(ix.tuples), len(lp.rand), tc.perTuple)
			}
			got := map[[2]uint64]bool{}
			for h, id := range ix.handles {
				if h > 0 && id <= ix.handles[h-1] {
					t.Fatalf("handles not strictly ascending: %v", ix.handles)
				}
				run := ix.tuples[ix.offs[h]:ix.offs[h+1]]
				if len(run) != tc.perSeed {
					t.Fatalf("seed %d lists tuples %v, want %d", id, run, tc.perSeed)
				}
				for i, tu := range run {
					if i > 0 && tu <= run[i-1] {
						t.Fatalf("seed %d tuples not strictly ascending: %v", id, run)
					}
					got[[2]uint64{id, uint64(tu)}] = true
				}
			}
			want := map[[2]uint64]bool{}
			for i, tu := range lp.rand {
				for _, id := range tu.SeedIDs() {
					want[[2]uint64{id, uint64(i)}] = true
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("index pairs %v, want %v", got, want)
			}
			if err := lp.loadTuples(true); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lp.seeds, ix) {
				t.Fatalf("replenishing run rebuilt %+v, want %+v", lp.seeds, ix)
			}
		})
	}
}
