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
// fixed-length tail run, so its samples match MONTECARLO(L) exactly, and a
// fixed MONTECARLO(L) DOMAIN query is the one-attempt case of the same
// driver.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/gibbs"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/tail"
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
// RunOptions.Progress after every round or tail-chain attempt — the
// engine-level form of the SSE events the serving layer streams. The CIs
// slice is freshly allocated per call and may be retained.
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
// and tail methods) into runSelectCompiled, runPlain and runTails, so
// adding a knob does not grow every signature on the path.
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
	// progress, when non-nil, selects progressive execution: fixed-N plain
	// statements run geometric rounds up to n instead of one round (with
	// convergence disabled), and the callback fires after every round or
	// tail-chain attempt.
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

// runTails is the one DOMAIN tail-sampling path: Exec, PreparedQuery.Run
// and QueryBuilder.TailSample/TailSampleGrouped all run through it. A GROUP
// BY query over g groups is g conditioned Gibbs chains over one shared
// compiled plan (paper App. A): the groups are discovered from one plan run
// (shared with the chains through the deterministic-prefix cache) and each
// chain is restricted to its group's tuples, exactly as if the query had a
// per-group selection predicate. An ungrouped query is the single group
// with an empty key: no discovery run, no restriction. The chain schedule
// is picked the way runPlain picks its rounds: a stopping rule runs as
// given; otherwise a fixed MONTECARLO(n) DOMAIN run is StopRule{MaxSamples:
// n, FirstRound: n}, one attempt of length n. The report is nil unless a
// rule or a progress callback is set.
func (e *Engine) runTails(c *compiled, rp runParams, rule *gibbs.StopRule, p float64, opts TailSampleOptions) (*GroupedTail, *AdaptiveReport, error) {
	if len(c.agg.Aggs) > 1 {
		return nil, nil, fmt.Errorf("mcdbr: DOMAIN tail sampling conditions on a single aggregate; the query has %d", len(c.agg.Aggs))
	}
	if c.agg.Having != nil {
		return nil, nil, fmt.Errorf("mcdbr: HAVING is not supported with DOMAIN tail sampling; drop the DOMAIN clause or the HAVING clause")
	}
	var r gibbs.StopRule
	switch {
	case rule != nil:
		r = *rule
	case rp.n < 1:
		// Normalized would turn MaxSamples 0 into the adaptive default.
		return nil, nil, fmt.Errorf("mcdbr: need l >= 1 tail samples, got %d", rp.n)
	default:
		r.MaxSamples, r.FirstRound = rp.n, rp.n
	}
	r = r.Normalized()
	topts := tail.Options{
		TotalSamples:      opts.TotalSamples,
		MSRETarget:        opts.MSRETarget,
		K:                 opts.K,
		ForceM:            opts.ForceM,
		MaxTriesPerUpdate: opts.MaxTriesPerUpdate,
		Parallelism:       opts.Parallelism,
	}
	if topts.Parallelism == 0 {
		topts.Parallelism = rp.workers
	}
	// The looper query is a copy, never the compiled plan's, so one plan can
	// serve concurrent runs.
	gq := c.gq
	gq.LowerTail = opts.Lower
	grouped := c.grouped()
	keys := []types.Row{nil}
	if grouped {
		dws := e.newRunWorkspace(rp.seed, e.window, rp.maxBytes)
		dws.Ctx = rp.ctx
		var err error
		if keys, err = c.agg.StreamGroupKeys(dws); err != nil {
			return nil, nil, err
		}
		gq.GroupBy = c.agg.GroupBy
	}
	out := &GroupedTail{GroupCols: c.agg.GroupColNames(), AggCol: c.agg.AggColNames()[0]}
	report := &AdaptiveReport{
		TargetRelError: r.TargetRelError,
		Confidence:     r.Confidence,
		MaxSamples:     r.MaxSamples,
		Converged:      true,
	}
	progress := rp.progress
	if progress != nil {
		// Renumber rounds globally across groups so the progressive stream
		// stays monotone.
		round := 0
		progress = func(u ProgressUpdate) {
			round++
			u.Round = round
			rp.progress(u)
		}
	}
	for _, key := range keys {
		gq.GroupKey = key
		tr, ci, attempts, degraded, err := e.runTailChain(c, rp, gq, p, r, topts, formatGroupKey(key), progress)
		if err != nil {
			// Deadline degradation across groups: if at least one group's
			// chain completed, report those groups partially instead of
			// failing the whole query.
			if r.DegradeOnDeadline && len(out.Groups) > 0 && errors.Is(err, context.DeadlineExceeded) {
				report.Degraded, report.Converged = true, false
				break
			}
			if grouped {
				err = fmt.Errorf("mcdbr: group %s: %w", formatGroupKey(key), err)
			}
			return nil, nil, err
		}
		out.Groups = append(out.Groups, GroupTail{Key: key, Tail: tr})
		report.SamplesUsed += len(tr.Samples)
		report.Rounds += attempts
		report.CIs = append(report.CIs, ci)
		report.Converged = report.Converged && ci.Converged
		if degraded {
			// The deadline already fired mid-chain; later groups would only
			// burn their first attempt against an expired context.
			report.Degraded, report.Converged = true, false
			break
		}
	}
	if rule == nil && rp.progress == nil {
		return out, nil, nil
	}
	return out, report, nil
}

// runTailChain runs one group's conditioned Gibbs chain under rule r by
// doubling the chain length per attempt: L, 2L, 4L, ... up to r.MaxSamples,
// stopping once the expected-shortfall interval (normal approximation over
// the conditioned samples, which the estimator treats as equally weighted)
// is relatively tighter than the target. Each attempt is a complete
// fixed-length run in a fresh per-run workspace, so the returned tail is
// bit-identical to MONTECARLO(L) DOMAIN execution at the final L; a fixed
// run is the one attempt L = r.MaxSamples. It returns the tail, its final
// interval, the attempt count, and whether the tail is a deadline-degraded
// earlier attempt (r.DegradeOnDeadline: when a longer chain's deadline
// fires, the last completed attempt — still a full fixed-length run — is
// returned instead of the error).
func (e *Engine) runTailChain(c *compiled, rp runParams, gq gibbs.Query, p float64, r gibbs.StopRule, topts tail.Options, group string, progress func(ProgressUpdate)) (*TailResult, AggregateCI, int, bool, error) {
	L := min(r.FirstRound, r.MaxSamples)
	aggName := c.agg.AggColNames()[0]
	var lastTR *TailResult
	var lastCI AggregateCI
	for attempt := 1; ; attempt++ {
		cfg, err := tail.Configure(p, L, topts)
		if err != nil {
			return nil, AggregateCI{}, attempt, false, err
		}
		ws := e.newRunWorkspace(rp.seed, max(e.window, cfg.N+cfg.L), rp.maxBytes)
		ws.Ctx = rp.ctx
		res, err := gibbs.Run(ws, c.agg.Child, gq, cfg)
		if err != nil {
			if r.DegradeOnDeadline && lastTR != nil && errors.Is(err, context.DeadlineExceeded) {
				return lastTR, lastCI, attempt, true, nil
			}
			return nil, AggregateCI{}, attempt, false, err
		}
		if err := stats.CheckFinite(res.TailSamples); err != nil {
			return nil, AggregateCI{}, attempt, false, fmt.Errorf("mcdbr: tail sampling produced a non-finite query result (%w); check VG parameters and aggregate expressions", err)
		}
		tr := &TailResult{
			Distribution:      *newDistribution(res.TailSamples),
			QuantileEstimate:  res.Quantile,
			P:                 p,
			Lower:             gq.LowerTail,
			ExpectedShortfall: stats.ExpectedShortfall(res.TailSamples),
			Diag:              res,
		}
		var w stats.Welford
		w.AddAll(tr.Samples)
		ci := AggregateCI{
			Group:     group,
			Agg:       aggName,
			N:         w.N(),
			Mean:      w.Mean(),
			HalfWidth: w.HalfWidth(r.Confidence),
			RelError:  w.RelHalfWidth(r.Confidence),
		}
		ci.Converged = r.TargetRelError > 0 && ci.RelError <= r.TargetRelError
		if ci.Converged {
			ci.ConvergedAt = L
		}
		if progress != nil {
			progress(ProgressUpdate{Round: attempt, SamplesUsed: L, Converged: ci.Converged, CIs: []AggregateCI{ci}})
		}
		if ci.Converged || L >= r.MaxSamples {
			return tr, ci, attempt, false, nil
		}
		lastTR, lastCI = tr, ci
		L = min(2*L, r.MaxSamples)
	}
}
