package gibbs

import (
	"fmt"

	"repro/internal/bundle"
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

// monteCarloGrouped evaluates one replicate window of a grouped (and/or
// multi-aggregate) query in a single pass: the plan below agg runs once,
// its tuples are partitioned by their deterministic group key once, and
// each of the n repetitions produces the whole per-group aggregate vector
// in one sweep. final is the Gibbs-looper final predicate (paper App. A),
// applied to every tuple before aggregation. ws must materialize exactly
// the window's stream positions, as a ShardWorkspace does; the round
// driver (MonteCarloGroupedAdaptive) is the only production caller.
//
// The window-major pass (AggEval.EvalWindow, HAVING included) runs first;
// the version-major loop is the fallback when kernels are off, the seed
// layout is not the identity layout, or a kernel meets a kind mismatch.
//
// For a single ungrouped aggregate the per-repetition arithmetic is
// identical, operation for operation, to MonteCarlo — deterministic
// tuples accumulate first, then random tuples in plan order — so results
// are bit-for-bit unchanged through this path.
func monteCarloGrouped(ws *exec.Workspace, agg *exec.Aggregate, final expr.Expr, n int) (*GroupedRuns, error) {
	// Aggregate passes its child's stream through; OpenEval pulls it one
	// batch at a time and partitions tuples by group key as they arrive.
	ev, err := agg.OpenEval(ws, final)
	if err != nil {
		return nil, err
	}
	ws.Seeds.InitAssignAt(ws.Base, n)
	nG, nA := ev.NumGroups(), len(agg.Aggs)
	out := &GroupedRuns{Keys: make([]types.Row, nG), Samples: make([][][]float64, nG)}
	for g := 0; g < nG; g++ {
		out.Keys[g] = ev.Key(g)
		out.Samples[g] = make([][]float64, nA)
		for a := 0; a < nA; a++ {
			out.Samples[g][a] = make([]float64, n)
		}
	}
	vec := make([][]float64, nG)
	for g := range vec {
		vec[g] = make([]float64, nA)
	}
	var include []bool
	if agg.Having != nil {
		include = make([]bool, nG)
		out.Include = make([][]bool, nG)
		for g := range out.Include {
			out.Include[g] = make([]bool, n)
		}
	}
	// Window-major fast path (DESIGN.md §13): when the assignment is the
	// contiguous identity layout (always true for a ShardWorkspace),
	// evaluate every version of each tuple in one kernel pass, then HAVING
	// per group per version. Bit-identical to the version-major loop below,
	// which any invalid layout falls through to.
	ok, err := ev.EvalWindow(ws, n, out.Samples, out.Include)
	if err != nil {
		return nil, err
	}
	if ok {
		return out, nil
	}
	//mcdbr:hotpath
	for v := 0; v < n; v++ {
		if err := ws.Cancelled(); err != nil {
			return nil, err
		}
		if err := ev.EvalVersion(bundle.Bind(ws.Seeds, v), vec, include); err != nil {
			return nil, err
		}
		for g := 0; g < nG; g++ {
			for a := 0; a < nA; a++ {
				out.Samples[g][a][v] = vec[g][a]
			}
			if include != nil {
				out.Include[g][v] = include[g]
			}
		}
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
