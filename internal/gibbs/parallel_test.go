package gibbs

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/prng"
)

// selectivePlan wraps lossPlan in a Select over the random attribute, so
// tuples carry presence vectors and the replicate value mixes SUM deltas
// with presence tests — the hardest case for shard-layout independence.
func selectivePlan(t testing.TB, ws *exec.Workspace, variance float64) exec.Node {
	t.Helper()
	return &exec.Select{
		Child: lossPlan(t, ws, variance),
		Pred:  expr.B(expr.OpGt, expr.C("losses.val"), expr.F(3.5)),
	}
}

// fixedRun runs a fixed MONTECARLO(n) through the plain Monte Carlo driver
// — one round of n, no stopping rule — over an ungrouped single-aggregate
// Aggregate rooted at plan, and returns the replicate values.
func fixedRun(t testing.TB, ws *exec.Workspace, plan exec.Node, spec exec.AggSpec, n, workers int) ([]float64, error) {
	t.Helper()
	spec.Name = "x"
	agg, err := exec.NewAggregate(plan, nil, nil, []exec.AggSpec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MonteCarloGroupedAdaptive(ws, agg, nil, StopRule{MaxSamples: n, FirstRound: n}, workers, nil)
	if err != nil {
		return nil, err
	}
	if res.Rounds != 1 || res.SamplesUsed != n {
		t.Fatalf("fixed run of %d took %d rounds, %d samples; want one round", n, res.Rounds, res.SamplesUsed)
	}
	return res.Runs.Samples[0][0], nil
}

// TestMonteCarloParallelDeterminism is the replicate-sharding contract:
// the driver's output is bit-for-bit identical to the sequential looper
// reference for every worker count, across plain and presence-vector
// plans and across SUM and COUNT aggregates.
func TestMonteCarloParallelDeterminism(t *testing.T) {
	means := []float64{3, 4, 5, 2.5, 6, 4.5, 3.3, 5.1}
	cat := lossCatalog(means)
	const n = 257 // deliberately not a multiple of any worker count

	type mkPlan func(testing.TB, *exec.Workspace, float64) exec.Node
	plans := []struct {
		name string
		mk   mkPlan
		q    Query
	}{
		{"sum", func(t testing.TB, ws *exec.Workspace, v float64) exec.Node { return lossPlan(t, ws, v) }, sumQuery()},
		{"select-sum", selectivePlan, sumQuery()},
		{"select-count", selectivePlan, Query{Agg: exec.AggSpec{Kind: exec.AggCount}}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			seqWS := exec.NewWorkspace(cat, prng.NewStream(7), n)
			want, err := MonteCarlo(seqWS, tc.mk(t, seqWS, 1), tc.q, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 5, runtime.NumCPU()} {
				ws := exec.NewWorkspace(cat, prng.NewStream(7), n)
				got, err := fixedRun(t, ws, tc.mk(t, ws, 1), tc.q.Agg, n, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d samples, want %d", workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: replicate %d = %v, want %v (bit-identity violated)",
							workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestRunParallelismDeterminism checks the looper's batch-recompute fast
// path: a full tail-sampling run must produce identical quantile
// trajectories and tail samples for every Parallelism value.
func TestRunParallelismDeterminism(t *testing.T) {
	means := []float64{3, 4, 5, 2.5, 6}
	base := Config{N: 32, M: 3, P: 0.05, L: 16, K: 1}

	run := func(parallelism int) *Result {
		t.Helper()
		cat := lossCatalog(means)
		ws := exec.NewWorkspace(cat, prng.NewStream(11), 64)
		plan := lossPlan(t, ws, 1)
		cfg := base
		cfg.Parallelism = parallelism
		res, err := Run(ws, plan, sumQuery(), cfg)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		return res
	}

	want := run(1)
	for _, parallelism := range []int{2, 3, runtime.NumCPU()} {
		got := run(parallelism)
		if got.Quantile != want.Quantile {
			t.Errorf("parallelism=%d: quantile %v, want %v", parallelism, got.Quantile, want.Quantile)
		}
		if len(got.Cutoffs) != len(want.Cutoffs) {
			t.Fatalf("parallelism=%d: %d cutoffs, want %d", parallelism, len(got.Cutoffs), len(want.Cutoffs))
		}
		for i := range want.Cutoffs {
			if got.Cutoffs[i] != want.Cutoffs[i] {
				t.Errorf("parallelism=%d: cutoff %d = %v, want %v", parallelism, i, got.Cutoffs[i], want.Cutoffs[i])
			}
		}
		if len(got.TailSamples) != len(want.TailSamples) {
			t.Fatalf("parallelism=%d: %d tail samples, want %d", parallelism, len(got.TailSamples), len(want.TailSamples))
		}
		for i := range want.TailSamples {
			if got.TailSamples[i] != want.TailSamples[i] {
				t.Errorf("parallelism=%d: tail sample %d = %v, want %v", parallelism, i, got.TailSamples[i], want.TailSamples[i])
			}
		}
	}
}

// TestRecomputeStatesReplenishSharded drives the batch recomputation past
// the materialized window: the round that meets an unmaterialized position
// replenishes once and retries the whole batch, and every shard layout
// yields the inline run's states bit for bit, after as many replenishments.
func TestRecomputeStatesReplenishSharded(t *testing.T) {
	const n = 300
	run := func(parallelism int) ([]exec.AggState, int) {
		t.Helper()
		ws := exec.NewWorkspace(lossCatalog([]float64{3, 4, 5}), prng.NewStream(13), 64)
		lp := &looper{ws: ws, plan: selectivePlan(t, ws, 1), q: sumQuery(), cfg: Config{N: n, Parallelism: parallelism}}
		if err := lp.init(); err != nil {
			t.Fatal(err)
		}
		if err := lp.recomputeStates(n); err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		return lp.states, lp.totalRepl
	}
	want, wantRepl := run(1)
	if wantRepl == 0 {
		t.Fatal("a window of 64 for 300 versions should replenish")
	}
	for _, parallelism := range []int{2, 3, 7} {
		got, repl := run(parallelism)
		if repl != wantRepl {
			t.Errorf("parallelism=%d: %d replenishments, want %d", parallelism, repl, wantRepl)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism=%d: states differ from the inline run", parallelism)
		}
	}
}

// TestMonteCarloParallelSmallN exercises the degenerate shard layouts:
// more workers than replicates, and n == 1.
func TestMonteCarloParallelSmallN(t *testing.T) {
	cat := lossCatalog([]float64{3, 4})
	seqWS := exec.NewWorkspace(cat, prng.NewStream(3), 8)
	want, err := MonteCarlo(seqWS, lossPlan(t, seqWS, 1), sumQuery(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ws := exec.NewWorkspace(cat, prng.NewStream(3), 8)
	got, err := fixedRun(t, ws, lossPlan(t, ws, 1), sumQuery().Agg, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replicate %d: %v vs %v", i, got[i], want[i])
		}
	}
	ws1 := exec.NewWorkspace(cat, prng.NewStream(3), 8)
	one, err := fixedRun(t, ws1, lossPlan(t, ws1, 1), sumQuery().Agg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != want[0] {
		t.Fatalf("n=1: %v, want [%v]", one, want[0])
	}
}
