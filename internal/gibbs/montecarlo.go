package gibbs

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
)

// MonteCarlo evaluates the query result for n independent Monte Carlo
// repetitions — the behaviour of the original MCDB system, where the i-th
// value of every stream is assigned to the i-th repetition. It runs the
// plan once over tuple bundles regardless of n and returns the n query
// results. It is the looper-based sequential reference: the naive
// baseline engine (internal/naive) runs on it, and the grouped and
// determinism tests compare the round driver against it.
func MonteCarlo(ws *exec.Workspace, plan exec.Node, q Query, n int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("gibbs: need n >= 1 repetitions, got %d", n)
	}
	// Tail direction is irrelevant when returning the whole sample.
	q.LowerTail = false
	lp := &looper{ws: ws, plan: plan, q: q, cfg: Config{N: n, M: 1, P: 0.5, L: n, K: 1, MaxTriesPerUpdate: 1}}
	if err := lp.init(); err != nil {
		return nil, err
	}
	if err := lp.recomputeStates(n); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for v, st := range lp.states {
		out[v] = st.Value(q.Agg.Kind)
	}
	return out, nil
}

// GroupedRuns is the output of single-pass grouped Monte Carlo: one
// sample vector per (group, aggregate) pair, with groups in ascending
// key order.
type GroupedRuns struct {
	// Keys holds each group's grouping-expression values; a single group
	// with an empty key for ungrouped queries.
	Keys []types.Row
	// Samples[g][a][r] is aggregate a of group g in Monte Carlo
	// repetition r.
	Samples [][][]float64
	// Include[g][r] reports whether group g satisfied the HAVING clause
	// in repetition r; nil when the query has no HAVING.
	Include [][]bool
}

// tileReplicates is how many replicates of a shard plain Monte Carlo
// draws per seed at a time: the shard's seed windows hold one tile, and
// AggEval.EvalWindow re-draws them in place for each next tile. On the
// mc_grouped benchmark workload (500 seeds, 2048 replicates, 2 workers on
// a 2-CPU machine), tiles of 64, 128 and 256 replicates ran equally fast
// within run-to-run noise and 512 ran slower; smaller tiles use less
// memory but repeat the per-tile work (a Materialize call per seed,
// kernel set-up per tuple) more often.
const tileReplicates = 256

// monteCarloGrouped evaluates one replicate window of a grouped (and/or
// multi-aggregate) query in a single pass: the plan below agg runs once,
// its tuples are partitioned by their deterministic group key once, and
// one window-major sweep (AggEval.EvalWindow, HAVING included) produces
// the per-group aggregate vectors of all n repetitions. final is the
// Gibbs-looper final predicate (paper App. A), applied to every tuple
// before aggregation. ws's window must start at the shard's first
// replicate and span its n replicates, as a ShardWorkspace's does; the
// round driver (MonteCarloGroupedAdaptive) is the only production
// caller. The plan runs with the window narrowed to one tile,
// tileReplicates, so a seed's values never take more than a tile's
// memory — except under a Split, which enumerates its groups from the
// window and so keeps the whole shard in it.
//
// For a single ungrouped aggregate the per-repetition arithmetic is
// identical, operation for operation, to MonteCarlo — deterministic
// tuples accumulate first, then random tuples in plan order — so results
// are bit-for-bit unchanged through this path.
func monteCarloGrouped(ws *exec.Workspace, agg *exec.Aggregate, final expr.Expr, n int) (*GroupedRuns, error) {
	if ws.Window > tileReplicates && !agg.HasSplit() {
		ws.Window = tileReplicates
	}
	// Aggregate passes its child's stream through; OpenEval pulls it one
	// batch at a time and partitions tuples by group key as they arrive.
	ev, err := agg.OpenEval(ws, final)
	if err != nil {
		return nil, err
	}
	ws.Seeds.InitAssignAt(ws.Base, min(n, ws.Window))
	nG, nA := ev.NumGroups(), len(agg.Aggs)
	out := &GroupedRuns{Keys: make([]types.Row, nG), Samples: make([][][]float64, nG)}
	for g := 0; g < nG; g++ {
		out.Keys[g] = ev.Key(g)
		out.Samples[g] = make([][]float64, nA)
		for a := 0; a < nA; a++ {
			out.Samples[g][a] = make([]float64, n)
		}
	}
	if agg.Having != nil {
		out.Include = make([][]bool, nG)
		for g := range out.Include {
			out.Include[g] = make([]bool, n)
		}
	}
	if err := ev.EvalWindow(ws, n, out.Samples, out.Include); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeGroupedRuns concatenates per-shard grouped runs in replicate
// order. The group partition is a pure function of the deterministic
// pipeline, so every shard must discover the same keys in the same
// order; a mismatch means the plan is not deterministic and is an error.
func mergeGroupedRuns(parts []*GroupedRuns) (*GroupedRuns, error) {
	first := parts[0]
	out := &GroupedRuns{Keys: first.Keys, Samples: make([][][]float64, len(first.Keys))}
	if first.Include != nil {
		out.Include = make([][]bool, len(first.Keys))
	}
	for _, p := range parts[1:] {
		if len(p.Keys) != len(first.Keys) {
			return nil, fmt.Errorf("gibbs: shard discovered %d groups, previously %d; plan is not deterministic", len(p.Keys), len(first.Keys))
		}
		for g := range p.Keys {
			if !p.Keys[g].Equal(first.Keys[g]) {
				return nil, fmt.Errorf("gibbs: shard group %d key %s differs from %s; plan is not deterministic", g, p.Keys[g], first.Keys[g])
			}
		}
	}
	for g := range first.Keys {
		out.Samples[g] = make([][]float64, len(first.Samples[g]))
		for a := range first.Samples[g] {
			var merged []float64
			for _, p := range parts {
				merged = append(merged, p.Samples[g][a]...)
			}
			out.Samples[g][a] = merged
		}
		if out.Include != nil {
			var merged []bool
			for _, p := range parts {
				merged = append(merged, p.Include[g]...)
			}
			out.Include[g] = merged
		}
	}
	return out, nil
}
