package mcdbr

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/gibbs"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

// Distribution is a Monte Carlo result distribution: the paper's
// RESULTDISTRIBUTION, materialized as samples plus the FREQUENCYTABLE.
type Distribution struct {
	// Samples are the Monte Carlo query results (conditioned to the tail
	// for TailResult).
	Samples []float64
	// FTable is the paper's FTABLE(value, FRAC) relation.
	FTable *stats.FrequencyTable

	// ecdf caches the sorted sample: building the frequency table already
	// sorts a copy of the samples, so Quantile/Min/ECDF reuse it instead
	// of re-sorting per call. nil for zero-constructed Distributions,
	// which fall back to sorting on demand.
	ecdf *stats.ECDF
}

func newDistribution(samples []float64) *Distribution {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return &Distribution{
		Samples: samples,
		FTable:  stats.NewFrequencyTableSorted(sorted),
		ecdf:    stats.NewECDFSorted(sorted),
	}
}

// dist returns the cached ECDF. Distributions built literally rather
// than by the engine have no cache; they sort per call (the pre-cache
// behavior) instead of lazily writing d.ecdf, which would race when one
// Distribution is read from several goroutines.
func (d *Distribution) dist() *stats.ECDF {
	if d.ecdf == nil {
		return stats.NewECDF(d.Samples)
	}
	return d.ecdf
}

// Mean estimates the expected query result.
func (d *Distribution) Mean() float64 { return stats.Summarize(d.Samples).Mean }

// Std estimates the standard deviation of the query result.
func (d *Distribution) Std() float64 { return stats.Summarize(d.Samples).Std }

// Quantile estimates the q-quantile of the (possibly conditioned)
// query-result distribution.
func (d *Distribution) Quantile(q float64) float64 {
	return d.dist().Quantile(q)
}

// CVaR returns the expected shortfall at level q: the conditional mean
// of the query result beyond its q-quantile, E[X | X >= Quantile(q)] —
// the standard risk measure paired with VaR. Computed through
// stats.ConditionalMean over the sample.
func (d *Distribution) CVaR(q float64) float64 {
	return stats.ConditionalMean(d.Samples, d.Quantile(q), false)
}

// CVaRLower is CVaR for the loss-is-small tail: E[X | X <= Quantile(q)].
func (d *Distribution) CVaRLower(q float64) float64 {
	return stats.ConditionalMean(d.Samples, d.Quantile(q), true)
}

// Min returns the smallest sample — for a tail distribution, the paper's
// SELECT MIN(totalLoss) FROM FTABLE tail-boundary estimate.
func (d *Distribution) Min() float64 { return d.dist().Min() }

// ExpectedValue returns SUM(value*FRAC) over the frequency table; on a
// tail distribution this is the expected shortfall.
func (d *Distribution) ExpectedValue() float64 { return d.FTable.WeightedSum() }

// ECDF returns the empirical CDF of the samples.
func (d *Distribution) ECDF() *stats.ECDF { return d.dist() }

// FTableRelation materializes the frequency table as an ordinary relation
// FTABLE(value FLOAT, frac FLOAT) that can be registered and re-queried,
// as in the paper's follow-up queries over FTABLE.
func (d *Distribution) FTableRelation(name string) *storage.Table {
	t := storage.NewTable(name, types.NewSchema(
		types.Column{Name: "value", Kind: types.KindFloat},
		types.Column{Name: "frac", Kind: types.KindFloat},
	))
	for i, v := range d.FTable.Values {
		t.MustAppend(types.Row{types.NewFloat(v), types.NewFloat(d.FTable.Fracs[i])})
	}
	return t
}

// TailResult is the output of MCDB-R tail sampling: a conditioned result
// distribution over the tail plus the extreme-quantile estimate.
type TailResult struct {
	Distribution
	// QuantileEstimate is theta-hat, the estimated (1-P)-quantile (or
	// P-quantile for lower tails).
	QuantileEstimate float64
	// P is the tail probability defining the quantile.
	P float64
	// Lower reports whether this is a lower tail.
	Lower bool
	// ExpectedShortfall is E[result | result in tail] — the CVaR paired
	// with the QuantileEstimate VaR (stats.ConditionalMean over the
	// conditioned sample).
	ExpectedShortfall float64
	// Diag exposes the Gibbs looper's per-iteration statistics.
	Diag *gibbs.Result
}

// GroupedDistribution is the result of a grouped and/or multi-aggregate
// Monte Carlo query: one Distribution per (group, aggregate) pair, with
// groups in ascending key order. Ungrouped multi-aggregate queries have
// exactly one group with an empty key.
type GroupedDistribution struct {
	// GroupCols name the grouping output columns (empty when ungrouped).
	GroupCols []string
	// AggCols name the aggregate output columns, in select-list order.
	AggCols []string
	// Groups holds the per-group results, sorted by key.
	Groups []GroupDistribution
}

// GroupDistribution is one group's result.
type GroupDistribution struct {
	// Key holds the group's grouping-expression values.
	Key types.Row
	// Dists holds one result distribution per aggregate, in select-list
	// order.
	Dists []*Distribution
	// Inclusion is the fraction of Monte Carlo runs in which the group
	// satisfied the HAVING clause (1 when the query has none). Samples
	// from excluded runs do not appear in Dists.
	Inclusion float64
}

// KeyString renders the group key the way the legacy per-group maps are
// keyed: the single value's string form, or comma-joined values for
// multi-column keys.
func (g *GroupDistribution) KeyString() string { return formatGroupKey(g.Key) }

// Group returns the group with the given KeyString, or nil.
func (gd *GroupedDistribution) Group(key string) *GroupDistribution {
	for i := range gd.Groups {
		if gd.Groups[i].KeyString() == key {
			return &gd.Groups[i]
		}
	}
	return nil
}

// DistMap flattens a single-aggregate grouped result into the legacy
// map[key]*Distribution shape.
func (gd *GroupedDistribution) DistMap() map[string]*Distribution {
	out := make(map[string]*Distribution, len(gd.Groups))
	for i := range gd.Groups {
		out[gd.Groups[i].KeyString()] = gd.Groups[i].Dists[0]
	}
	return out
}

// GroupedTail is the result of a GROUP BY ... DOMAIN query: one
// conditioned tail distribution per group (paper App. A), produced by one
// Gibbs run per group over a single shared compiled plan.
type GroupedTail struct {
	// GroupCols name the grouping output columns.
	GroupCols []string
	// AggCol names the conditioned aggregate.
	AggCol string
	// Groups holds the per-group tails, sorted by key.
	Groups []GroupTail
}

// GroupTail is one group's conditioned tail result.
type GroupTail struct {
	Key  types.Row
	Tail *TailResult
}

// KeyString renders the group key (see GroupDistribution.KeyString).
func (g *GroupTail) KeyString() string { return formatGroupKey(g.Key) }

// TailMap flattens the grouped tails into the legacy
// map[key]*TailResult shape.
func (gt *GroupedTail) TailMap() map[string]*TailResult {
	out := make(map[string]*TailResult, len(gt.Groups))
	for i := range gt.Groups {
		out[gt.Groups[i].KeyString()] = gt.Groups[i].Tail
	}
	return out
}

func formatGroupKey(key types.Row) string {
	parts := make([]string, len(key))
	for i, v := range key {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

// MonteCarlo runs the query with n plain Monte Carlo repetitions (original
// MCDB semantics) and returns the unconditioned result distribution. The
// repetitions are replicate-sharded across the engine's worker count (see
// WithParallelism); samples are identical for every worker count. The
// query must have a single aggregate and no GROUP BY — use
// MonteCarloGrouped otherwise.
func (q *QueryBuilder) MonteCarlo(n int) (d *Distribution, err error) {
	defer recoverToError("MonteCarlo", &err)
	c, err := q.compile()
	if err != nil {
		return nil, err
	}
	if c.grouped() || len(c.agg.Aggs) > 1 {
		return nil, fmt.Errorf("mcdbr: query has GROUP BY or multiple aggregates; use MonteCarloGrouped")
	}
	gd, _, err := q.e.runPlain(c, q.runParams(n), nil)
	if err != nil {
		return nil, err
	}
	return gd.Groups[0].Dists[0], nil
}

// MonteCarloGrouped runs a grouped and/or multi-aggregate query with n
// plain Monte Carlo repetitions in a single pass: the plan executes once
// per run, tuples are partitioned by their deterministic group key once,
// and every repetition produces the whole per-group aggregate vector in
// one sweep — no per-group re-execution.
func (q *QueryBuilder) MonteCarloGrouped(n int) (gd *GroupedDistribution, err error) {
	defer recoverToError("MonteCarloGrouped", &err)
	c, err := q.compile()
	if err != nil {
		return nil, err
	}
	gd, _, err = q.e.runPlain(c, q.runParams(n), nil)
	return gd, err
}

// MonteCarloAdaptive runs the query under the builder's Until stopping
// rule: replicates execute in geometrically growing replicate-sharded
// rounds and stop as soon as every (group, aggregate) estimate's relative
// CI half-width meets the target (or at the rule's MaxSamples). The
// replicates actually run are bit-identical to MonteCarloGrouped of the
// same count, at every worker count. Ungrouped single-aggregate queries
// return one group with an empty key.
func (q *QueryBuilder) MonteCarloAdaptive() (gd *GroupedDistribution, report *AdaptiveReport, err error) {
	defer recoverToError("MonteCarloAdaptive", &err)
	c, err := q.compile()
	if err != nil {
		return nil, nil, err
	}
	if c.stop == nil {
		return nil, nil, fmt.Errorf("mcdbr: MonteCarloAdaptive needs a stopping rule; call Until first")
	}
	rule := stopRuleFromSpec(c.stop)
	return q.e.runPlain(c, q.runParams(0), &rule)
}

// runParams is the builder's run configuration: the engine's seed, worker
// count and per-query memory bound, no cancellation, no progress.
func (q *QueryBuilder) runParams(n int) runParams {
	return runParams{seed: q.e.seed, workers: q.e.parallelism, n: n, maxBytes: q.e.maxQueryBytes}
}

// buildGroupedDistribution turns raw grouped runs into the per-group
// result distributions; n is the replicate count the runs hold (shared by
// the fixed-N and adaptive paths, where n is the replicates actually run).
func buildGroupedDistribution(c *compiled, gr *gibbs.GroupedRuns, n int) (*GroupedDistribution, error) {
	out := &GroupedDistribution{
		GroupCols: c.agg.GroupColNames(),
		AggCols:   c.agg.AggColNames(),
	}
	for g := range gr.Keys {
		kept := n
		samples := gr.Samples[g]
		if gr.Include != nil {
			samples = make([][]float64, len(gr.Samples[g]))
			kept = 0
			for _, inc := range gr.Include[g] {
				if inc {
					kept++
				}
			}
			if kept == 0 {
				continue // the group never satisfied HAVING
			}
			for a := range samples {
				filtered := make([]float64, 0, kept)
				for r, inc := range gr.Include[g] {
					if inc {
						filtered = append(filtered, gr.Samples[g][a][r])
					}
				}
				samples[a] = filtered
			}
		}
		gd := GroupDistribution{
			Key:       gr.Keys[g],
			Dists:     make([]*Distribution, len(samples)),
			Inclusion: float64(kept) / float64(n),
		}
		for a := range samples {
			if err := stats.CheckFinite(samples[a]); err != nil {
				where := "aggregate " + c.agg.Aggs[a].Name
				if c.grouped() {
					where = "group " + formatGroupKey(gr.Keys[g]) + " " + where
				}
				return nil, fmt.Errorf("mcdbr: %s produced a non-finite query result (%w); check VG parameters and aggregate expressions", where, err)
			}
			gd.Dists[a] = newDistribution(samples[a])
		}
		out.Groups = append(out.Groups, gd)
	}
	return out, nil
}

// TailSampleOptions tunes tail sampling; the zero value uses the Appendix C
// defaults.
type TailSampleOptions struct {
	// TotalSamples is the budget N over all bootstrapping steps (0 =
	// derive from MSRETarget, default target 0.05).
	TotalSamples int
	// MSRETarget selects N when TotalSamples is 0.
	MSRETarget float64
	// K is the number of Gibbs updating steps (default 1).
	K int
	// ForceM overrides the Theorem 1 step count.
	ForceM int
	// MaxTriesPerUpdate bounds rejection sampling per update.
	MaxTriesPerUpdate int
	// Lower samples the lower tail (small-value risk) instead of the upper.
	Lower bool
	// Parallelism overrides the engine's worker count for this query's
	// batch version recomputation (0 = engine default, 1 = sequential).
	Parallelism int
}

// TailSample estimates the (1-p)-quantile of the query-result distribution
// and returns l samples conditioned to lie beyond it — the paper's
//
//	WITH RESULTDISTRIBUTION MONTECARLO(l)
//	DOMAIN result >= QUANTILE(1-p)
//
// clause. For Lower tails the DOMAIN is result <= QUANTILE(p). The query
// must have a single aggregate and no GROUP BY — use TailSampleGrouped
// for per-group tails.
func (q *QueryBuilder) TailSample(p float64, l int, opts TailSampleOptions) (tr *TailResult, err error) {
	defer recoverToError("TailSample", &err)
	c, err := q.compile()
	if err != nil {
		return nil, err
	}
	if c.grouped() || len(c.agg.Aggs) > 1 {
		return nil, fmt.Errorf("mcdbr: query has GROUP BY or multiple aggregates; use TailSampleGrouped")
	}
	gt, _, err := q.e.runTails(c, q.runParams(l), nil, p, opts)
	if err != nil {
		return nil, err
	}
	return gt.Groups[0].Tail, nil
}

// TailSampleGrouped runs per-group tail sampling for a GROUP BY query:
// the plan is compiled once, the groups are discovered from one plan run,
// and each group gets its own conditioned Gibbs run restricted to its
// tuples (paper App. A treats GROUP BY over g groups as g conditioned
// queries) — without re-parsing, re-planning, or re-filtering per group,
// and with deterministic prefixes shared through the engine's prefix
// cache. The query must have exactly one aggregate and no HAVING.
func (q *QueryBuilder) TailSampleGrouped(p float64, l int, opts TailSampleOptions) (gt *GroupedTail, err error) {
	defer recoverToError("TailSampleGrouped", &err)
	c, err := q.compile()
	if err != nil {
		return nil, err
	}
	if !c.grouped() {
		return nil, fmt.Errorf("mcdbr: TailSampleGrouped needs GROUP BY; use TailSample")
	}
	gt, _, err = q.e.runTails(c, q.runParams(l), nil, p, opts)
	return gt, err
}

// Histogram bins the samples into nBins equal-width buckets; a convenience
// for text plots in examples and the bench harness.
func (d *Distribution) Histogram(nBins int) (edges []float64, counts []int) {
	if nBins < 1 || len(d.Samples) == 0 {
		return nil, nil
	}
	s := stats.Summarize(d.Samples)
	lo, hi := s.Min, s.Max
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(nBins)
	edges = make([]float64, nBins+1)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	counts = make([]int, nBins)
	for _, x := range d.Samples {
		b := int(math.Floor((x - lo) / width))
		if b >= nBins {
			b = nBins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}
