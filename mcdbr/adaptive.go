package mcdbr

// Adaptive Monte Carlo at the public API layer: the engine-side drivers
// behind MONTECARLO(UNTIL ERROR < eps AT conf%, MAX n) and the
// RunOptions.TargetRelError override. Plain (non-DOMAIN) queries run
// through the round-based driver in internal/gibbs, which executes
// replicates in geometrically growing replicate-sharded windows and stops
// once every (group, aggregate) confidence interval is relatively tighter
// than the target; stopping after m replicates is bit-identical to a fixed
// MONTECARLO(m) run at every worker count. DOMAIN tail queries instead
// double the conditioned chain length per attempt until the expected-
// shortfall interval meets the target — the final attempt is literally a
// fixed-length tail run, so its samples match MONTECARLO(L) exactly.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/gibbs"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

// AggregateCI is the confidence-interval state of one (group, aggregate)
// estimate when an adaptive run stopped (or, in a ProgressUpdate, after a
// round). The interval is the normal approximation mean ± HalfWidth at the
// rule's confidence level, computed over HAVING-included replicates.
type AggregateCI struct {
	// Group is the formatted group key ("" for ungrouped queries).
	Group string
	// Agg names the aggregate output column.
	Agg string
	// N is the number of replicates folded in.
	N int64
	// Mean is the running point estimate.
	Mean float64
	// HalfWidth is the CI half-width at the rule's confidence level.
	HalfWidth float64
	// RelError is HalfWidth / |Mean| (+Inf when undefined).
	RelError float64
	// Converged reports whether RelError met the target.
	Converged bool
	// ConvergedAt is the cumulative replicate count at which the estimate
	// first converged (0 if it never did).
	ConvergedAt int
}

// AdaptiveReport summarizes how an adaptive run stopped: the effective
// stopping rule, the replicates actually spent, and the final interval per
// (group, aggregate) pair. Attached to the ExecResult of every adaptive
// execution (and of progressive fixed-N runs, where Converged is always
// false because no target is set).
type AdaptiveReport struct {
	// TargetRelError, Confidence, and MaxSamples echo the effective rule
	// (defaults filled in).
	TargetRelError float64
	Confidence     float64
	MaxSamples     int
	// SamplesUsed is the number of Monte Carlo replicates executed (for
	// DOMAIN queries: conditioned tail samples retained, summed over
	// groups).
	SamplesUsed int
	// Rounds is the number of rounds (plain MC) or chain attempts (tails).
	Rounds int
	// Converged reports whether every estimate met the target before
	// MaxSamples.
	Converged bool
	// Degraded reports that the run's deadline fired before the rule was
	// satisfied and the report describes the partial prefix accumulated by
	// then (RunOptions.DegradeOnDeadline). For grouped tails a degraded
	// report may cover only the groups whose chains completed in time.
	Degraded bool
	// CIs holds the final interval per (group, aggregate) pair, groups in
	// key order, aggregates in select-list order.
	CIs []AggregateCI
}

// ProgressUpdate is the progressive-result payload delivered to
// RunOptions.Progress after every adaptive round — the engine-level form
// of the SSE events the serving layer streams. The CIs slice is freshly
// allocated per call and may be retained.
type ProgressUpdate struct {
	// Round counts completed rounds (1-based).
	Round int
	// SamplesUsed is the cumulative replicate count (for tails: the
	// current chain length).
	SamplesUsed int
	// Converged reports whether every estimate has met the target.
	Converged bool
	// CIs snapshots every (group, aggregate) interval.
	CIs []AggregateCI
}

// runParams bundles the per-run execution knobs threaded from the public
// entry points (Exec, PreparedQuery.RunCtx, the QueryBuilder Monte Carlo
// methods) into runSelectCompiled and runPlain, so adding a knob does not
// grow every signature on the path.
type runParams struct {
	// ctx carries run cancellation; nil means "never cancelled".
	ctx      context.Context
	seed     uint64
	workers  int
	n        int
	maxBytes int64
	// stop, when non-nil, is the resolved adaptive stopping rule (RunOptions
	// overrides already folded in). nil falls back to the statement's rule.
	stop *gibbs.StopRule
	// degrade opts adaptive runs into graceful deadline degradation
	// (RunOptions.DegradeOnDeadline); fixed-N runs ignore it.
	degrade bool
	// progress, when non-nil, selects progressive execution: fixed-N
	// statements run geometric rounds up to n instead of one round (with
	// convergence disabled), and the callback fires after every round.
	progress func(ProgressUpdate)
}

// stopRule resolves the effective stopping rule: the per-run override if
// set, else the statement/builder rule compiled into the plan, else nil
// (fixed-N execution).
func (rp runParams) stopRule(c *compiled) *gibbs.StopRule {
	if rp.stop != nil {
		return rp.stop
	}
	if c.stop != nil {
		r := stopRuleFromSpec(c.stop)
		return &r
	}
	return nil
}

// stopRuleFromSpec converts the plan-layer stopping rule to the executor
// form (defaults still unfilled; Normalized applies them).
func stopRuleFromSpec(s *plan.StopSpec) gibbs.StopRule {
	return gibbs.StopRule{
		TargetRelError: s.TargetRelError,
		Confidence:     s.Confidence,
		MaxSamples:     s.MaxSamples,
	}
}

// snapshotCIs flattens the driver's per-(group, aggregate) snapshots into
// the public shape, labelling each with its group key and aggregate column.
func snapshotCIs(aggCols []string, keys []types.Row, cis [][]gibbs.CISnapshot) []AggregateCI {
	var out []AggregateCI
	for g := range cis {
		group := ""
		if g < len(keys) {
			group = formatGroupKey(keys[g])
		}
		for a := range cis[g] {
			s := cis[g][a]
			name := ""
			if a < len(aggCols) {
				name = aggCols[a]
			}
			out = append(out, AggregateCI{
				Group:       group,
				Agg:         name,
				N:           s.N,
				Mean:        s.Mean,
				HalfWidth:   s.HalfWidth,
				RelError:    s.RelError,
				Converged:   s.Converged,
				ConvergedAt: s.ConvergedAt,
			})
		}
	}
	return out
}

// adaptiveReport builds the public report from the driver's result.
func adaptiveReport(c *compiled, res *gibbs.AdaptiveResult, rule gibbs.StopRule) *AdaptiveReport {
	return &AdaptiveReport{
		TargetRelError: rule.TargetRelError,
		Confidence:     rule.Confidence,
		MaxSamples:     rule.MaxSamples,
		SamplesUsed:    res.SamplesUsed,
		Rounds:         res.Rounds,
		Converged:      res.Converged,
		Degraded:       res.Degraded,
		CIs:            snapshotCIs(c.agg.AggColNames(), res.Runs.Keys, res.CIs),
	}
}

// runPlain is the one plain (non-DOMAIN) Monte Carlo path: fixed-N,
// progressive and adaptive runs all execute through the round driver in a
// fresh per-run workspace (with cancellation attached), and the result
// distributions are built from the replicates actually run. It picks the
// round schedule in one place: a stopping rule runs as given; a progress
// callback alone runs the default geometric rounds up to rp.n with
// convergence disabled (progressive streaming, bit-identical to the
// non-progressive result); otherwise one round of rp.n. The report is nil
// unless a rule or a progress callback is set.
func (e *Engine) runPlain(c *compiled, rp runParams, rule *gibbs.StopRule) (*GroupedDistribution, *AdaptiveReport, error) {
	var r gibbs.StopRule
	switch {
	case rule != nil:
		r = *rule
	case rp.n < 1:
		// Normalized would turn MaxSamples 0 into the adaptive default.
		return nil, nil, fmt.Errorf("mcdbr: need n >= 1 Monte Carlo repetitions, got %d", rp.n)
	case rp.progress != nil:
		r.MaxSamples = rp.n
	default:
		r.MaxSamples, r.FirstRound = rp.n, rp.n
	}
	r = r.Normalized()
	// The prototype workspace is never evaluated itself — every round
	// window runs in a ShardWorkspace with its own base and window — so
	// the window here only sizes the prototype's (unused) default.
	ws := e.newRunWorkspace(rp.seed, r.FirstRound, rp.maxBytes)
	ws.Ctx = rp.ctx
	var gp func(gibbs.RoundUpdate)
	if rp.progress != nil {
		aggCols := c.agg.AggColNames()
		gp = func(u gibbs.RoundUpdate) {
			rp.progress(ProgressUpdate{
				Round:       u.Round,
				SamplesUsed: u.SamplesUsed,
				Converged:   u.Converged,
				CIs:         snapshotCIs(aggCols, u.Keys, u.CIs),
			})
		}
	}
	res, err := gibbs.MonteCarloGroupedAdaptive(ws, c.agg, c.gq.FinalPred, r, rp.workers, gp)
	if err != nil {
		return nil, nil, err
	}
	gd, err := buildGroupedDistribution(c, res.Runs, res.SamplesUsed)
	if err != nil {
		return nil, nil, err
	}
	if rule == nil && rp.progress == nil {
		return gd, nil, nil
	}
	return gd, adaptiveReport(c, res, r), nil
}

// runTailAdaptive runs one conditioned Gibbs tail chain under an adaptive
// stopping rule by doubling the chain length per attempt: L, 2L, 4L, ...
// up to rule.MaxSamples, stopping once the expected-shortfall interval
// (normal approximation over the conditioned samples, which the estimator
// treats as equally weighted) is relatively tighter than the target. Each
// attempt is a complete fixed-length run, so the returned TailResult is
// bit-identical to MONTECARLO(L) DOMAIN execution at the final L. It
// returns the tail, its final interval, the attempt count, and whether the
// result is a deadline-degraded earlier attempt (rule.DegradeOnDeadline:
// when a longer chain's deadline fires, the last completed attempt — still
// a full fixed-length run — is returned instead of the error).
func (e *Engine) runTailAdaptive(ctx context.Context, c *compiled, gq gibbs.Query, p float64, rule gibbs.StopRule, opts TailSampleOptions, seed uint64, maxBytes int64, group string, progress func(ProgressUpdate)) (*TailResult, AggregateCI, int, bool, error) {
	rule = rule.Normalized()
	L := rule.FirstRound
	if L > rule.MaxSamples {
		L = rule.MaxSamples
	}
	aggName := c.agg.AggColNames()[0]
	var lastTR *TailResult
	var lastCI AggregateCI
	for attempt := 1; ; attempt++ {
		tr, err := e.runTailWith(ctx, c, gq, p, L, opts, seed, maxBytes)
		if err != nil {
			if rule.DegradeOnDeadline && lastTR != nil && errors.Is(err, context.DeadlineExceeded) {
				return lastTR, lastCI, attempt, true, nil
			}
			return nil, AggregateCI{}, attempt, false, err
		}
		var w stats.Welford
		w.AddAll(tr.Samples)
		ci := AggregateCI{
			Group:     group,
			Agg:       aggName,
			N:         w.N(),
			Mean:      w.Mean(),
			HalfWidth: w.HalfWidth(rule.Confidence),
			RelError:  w.RelHalfWidth(rule.Confidence),
		}
		ci.Converged = rule.TargetRelError > 0 && ci.RelError <= rule.TargetRelError
		if ci.Converged {
			ci.ConvergedAt = L
		}
		if progress != nil {
			progress(ProgressUpdate{Round: attempt, SamplesUsed: L, Converged: ci.Converged, CIs: []AggregateCI{ci}})
		}
		if ci.Converged || L >= rule.MaxSamples {
			return tr, ci, attempt, false, nil
		}
		lastTR, lastCI = tr, ci
		L *= 2
		if L > rule.MaxSamples {
			L = rule.MaxSamples
		}
	}
}

// runGroupedTailAdaptive is the per-group form: groups are discovered from
// one plan run (as in runGroupedTail), then every group's chain stops
// independently — a low-variance group settles at a short chain while a
// heavy-tailed one keeps doubling, which is where grouped tail queries
// recover most of their adaptive savings.
func (e *Engine) runGroupedTailAdaptive(ctx context.Context, c *compiled, p float64, rule gibbs.StopRule, opts TailSampleOptions, seed uint64, maxBytes int64, progress func(ProgressUpdate)) (*GroupedTail, *AdaptiveReport, error) {
	rule = rule.Normalized()
	dws := e.newRunWorkspace(seed, e.window, maxBytes)
	dws.Ctx = ctx
	keys, err := c.agg.StreamGroupKeys(dws)
	if err != nil {
		return nil, nil, err
	}
	out := &GroupedTail{
		GroupCols: c.agg.GroupColNames(),
		AggCol:    c.agg.AggColNames()[0],
	}
	report := &AdaptiveReport{
		TargetRelError: rule.TargetRelError,
		Confidence:     rule.Confidence,
		MaxSamples:     rule.MaxSamples,
		Converged:      true,
	}
	round := 0
	gp := progress
	if progress != nil {
		// Renumber rounds globally across groups so the progressive stream
		// stays monotone.
		gp = func(u ProgressUpdate) {
			round++
			u.Round = round
			progress(u)
		}
	}
	for _, key := range keys {
		gq := c.gq
		gq.LowerTail = opts.Lower
		gq.GroupBy = c.agg.GroupBy
		gq.GroupKey = key
		tr, ci, attempts, degraded, err := e.runTailAdaptive(ctx, c, gq, p, rule, opts, seed, maxBytes, formatGroupKey(key), gp)
		if err != nil {
			// Deadline degradation for grouped tails: if at least one group's
			// chain completed, report those groups partially instead of
			// failing the whole query.
			if rule.DegradeOnDeadline && len(out.Groups) > 0 && errors.Is(err, context.DeadlineExceeded) {
				report.Degraded = true
				report.Converged = false
				break
			}
			return nil, nil, fmt.Errorf("mcdbr: group %s: %w", formatGroupKey(key), err)
		}
		out.Groups = append(out.Groups, GroupTail{Key: key, Tail: tr})
		report.SamplesUsed += len(tr.Samples)
		report.Rounds += attempts
		report.CIs = append(report.CIs, ci)
		if !ci.Converged {
			report.Converged = false
		}
		if degraded {
			// The deadline already fired mid-chain; later groups would only
			// burn their first attempt against an expired context.
			report.Degraded = true
			report.Converged = false
			break
		}
	}
	return out, report, nil
}
