// Package experiments regenerates every quantitative artifact of the
// paper's evaluation (see DESIGN.md §2 for the experiment index):
//
//	E1 — Appendix D timing: MCDB-R tail sampling vs naive MCDB on the
//	     TPC-H-like join query (per-iteration times, speedup).
//	E2 — Figure 5: empirical tail CDFs vs the analytic conditional CDF on
//	     the skewed-join workload; quantile-estimate bias and SE.
//	E3 — §1 motivation: naive Monte Carlo cost in the tail.
//	E4 — Appendix C: parameter selection (Theorem 1 m*, w(N), MSRE).
//	E5 — Appendix B: light- vs heavy-tail rejection cost.
//
// Both cmd/mcdbr-bench and the root bench_test.go drive these functions.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/naive"
	"repro/internal/stats"
	"repro/internal/tail"
	"repro/internal/workload"
	"repro/mcdbr"
)

// TPCHEngine builds an engine loaded with the Appendix D accuracy workload
// (inverse-gamma hyperpriors, skewed join) at 1/scaleDiv of paper scale and
// defines the random_ord table (val ~ Normal(o_mean, o_var) per order).
func TPCHEngine(scaleDiv int, seed uint64, opts ...mcdbr.Option) (*mcdbr.Engine, error) {
	return tpchEngine(workload.DefaultTPCH(scaleDiv), seed, opts...)
}

// TPCHTimingEngine builds the Appendix D *timing* workload (mean and
// variance of one, plain join).
func TPCHTimingEngine(scaleDiv int, seed uint64, opts ...mcdbr.Option) (*mcdbr.Engine, error) {
	return tpchEngine(workload.TimingTPCH(scaleDiv), seed, opts...)
}

func tpchEngine(cfg workload.TPCHConfig, seed uint64, opts ...mcdbr.Option) (*mcdbr.Engine, error) {
	cfg.Seed = seed*2654435761 + 97
	orders, lineitem, err := workload.TPCHLike(cfg)
	if err != nil {
		return nil, err
	}
	e := mcdbr.New(append([]mcdbr.Option{mcdbr.WithSeed(seed), mcdbr.WithWindow(1000)}, opts...)...)
	e.RegisterTable(orders)
	e.RegisterTable(lineitem)
	err = e.DefineRandomTable(mcdbr.RandomTable{
		Name:       "random_ord",
		ParamTable: "orders",
		VG:         "Normal",
		VGParams:   []expr.Expr{expr.C("o_mean"), expr.C("o_var")},
		Columns: []mcdbr.RandomCol{
			{Name: "o_orderkey", FromParam: "o_orderkey"},
			{Name: "o_yr", FromParam: "o_yr"},
			{Name: "val", VGOut: 0},
		},
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// TPCHQuery is the Appendix D benchmark query:
//
//	SELECT SUM(val) FROM random_ord, lineitem
//	WHERE o_orderkey = l_orderkey AND (o_yr = 1994 OR o_yr = 1995)
func TPCHQuery(e *mcdbr.Engine) *mcdbr.QueryBuilder {
	return e.Query().
		From("random_ord", "r").
		From("lineitem", "l").
		Where(expr.B(expr.OpEq, expr.C("r.o_orderkey"), expr.C("l.l_orderkey"))).
		Where(expr.B(expr.OpOr,
			expr.B(expr.OpEq, expr.C("r.o_yr"), expr.I(1994)),
			expr.B(expr.OpEq, expr.C("r.o_yr"), expr.I(1995)))).
		SelectSum(expr.C("r.val"))
}

// TPCHAnalyticMoments returns the analytic mean and sd of the benchmark
// query result (the paper's grpsize closed form).
func TPCHAnalyticMoments(e *mcdbr.Engine) (mu, sigma float64) {
	orders, _ := e.Table("orders")
	lineitem, _ := e.Table("lineitem")
	m, v := workload.TPCHAnalytic(orders, lineitem, map[int64]bool{1994: true, 1995: true})
	return m, math.Sqrt(v)
}

// E1Result holds the Appendix D timing comparison.
type E1Result struct {
	ScaleDiv    int
	P           float64
	L           int
	IterSeconds []float64
	TailSeconds float64
	Quantile    float64
	AnalyticQ   float64

	NaiveReps       int     // repetitions actually measured
	NaiveSeconds    float64 // time for those repetitions
	NaiveNeededReps float64 // ~L/P repetitions to collect L tail samples
	NaiveExtrapSec  float64
	SpeedupExtrap   float64
}

// RunE1 executes the Appendix D timing experiment: MCDB-R with the paper's
// parameters (m=5, p^{1/m}=0.25, N=500, l=100, window 1000) against naive
// MCDB extrapolated to the ~l/p repetitions it needs for l tail samples.
func RunE1(scaleDiv int, seed uint64, opts ...mcdbr.Option) (*E1Result, error) {
	p := math.Pow(0.25, 5) // the paper's p^(1/m)=0.25, m=5 => p ≈ 0.000977
	res := &E1Result{ScaleDiv: scaleDiv, P: p, L: 100}

	e, err := TPCHTimingEngine(scaleDiv, seed, opts...)
	if err != nil {
		return nil, err
	}
	mu, sigma := TPCHAnalyticMoments(e)
	res.AnalyticQ = stats.NormalQuantile(1-p, mu, sigma)

	start := time.Now()
	tr, err := TPCHQuery(e).TailSample(p, res.L, mcdbr.TailSampleOptions{
		TotalSamples: 500, ForceM: 5,
	})
	if err != nil {
		return nil, err
	}
	res.TailSeconds = time.Since(start).Seconds()
	res.Quantile = tr.QuantileEstimate
	for _, it := range tr.Diag.Iters {
		res.IterSeconds = append(res.IterSeconds, it.Duration.Seconds())
	}

	// Naive baseline: measure a feasible repetition count and extrapolate
	// to the ~L/P repetitions needed for L tail samples (the paper's
	// 18-hour datapoint).
	e2, err := TPCHTimingEngine(scaleDiv, seed+1)
	if err != nil {
		return nil, err
	}
	res.NaiveReps = 2000
	start = time.Now()
	samples, err := TPCHQuery(e2).MonteCarlo(res.NaiveReps)
	if err != nil {
		return nil, err
	}
	res.NaiveSeconds = time.Since(start).Seconds()
	_ = samples
	res.NaiveNeededReps = float64(res.L) / p
	res.NaiveExtrapSec = res.NaiveSeconds * res.NaiveNeededReps / float64(res.NaiveReps)
	if res.TailSeconds > 0 {
		res.SpeedupExtrap = res.NaiveExtrapSec / res.TailSeconds
	}
	return res, nil
}

// Print writes the experiment as a paper-style table.
func (r *E1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "E1: Appendix D timing (TPC-H-like at 1/%d paper scale, p=%.6f, l=%d)\n", r.ScaleDiv, r.P, r.L)
	fmt.Fprintf(w, "  MCDB-R iteration seconds:")
	for i, s := range r.IterSeconds {
		fmt.Fprintf(w, " it%d=%.2f", i+1, s)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  MCDB-R total: %.2fs, quantile estimate %.4g (analytic %.4g, rel.err %.3f%%)\n",
		r.TailSeconds, r.Quantile, r.AnalyticQ, 100*math.Abs(r.Quantile-r.AnalyticQ)/r.AnalyticQ)
	fmt.Fprintf(w, "  naive MCDB: %d reps in %.2fs -> %.0f reps needed -> %.0fs extrapolated\n",
		r.NaiveReps, r.NaiveSeconds, r.NaiveNeededReps, r.NaiveExtrapSec)
	fmt.Fprintf(w, "  speedup (extrapolated): %.0fx   [paper: 18h -> 11min ≈ 98x]\n", r.SpeedupExtrap)
}

// E2Result holds the Figure 5 accuracy study.
type E2Result struct {
	Runs      int
	TrueQ     float64
	Mu, Sigma float64
	Estimates []float64
	// ECDFs holds one empirical tail CDF per run as (xs, Fs) point lists.
	ECDFs [][2][]float64
	// KS holds, per run, the KS distance between the empirical tail CDF
	// and the analytic conditional CDF beyond TrueQ.
	KS []float64
	// Middle99Width is the width of the central 99% of the unconditioned
	// query-result distribution (the paper's 2503 yardstick).
	Middle99Width float64
}

// RunE2 executes the Figure 5 accuracy experiment: `runs` independent
// tail-sampling executions with the paper's parameters (m=5, N=1000,
// l=100, p = 1-(0.25)^5 quantile) on the skewed-join workload.
func RunE2(scaleDiv, runs int, seed uint64, opts ...mcdbr.Option) (*E2Result, error) {
	p := math.Pow(0.25, 5)
	out := &E2Result{Runs: runs}
	base, err := TPCHEngine(scaleDiv, seed, opts...) // same data for all runs
	if err != nil {
		return nil, err
	}
	out.Mu, out.Sigma = TPCHAnalyticMoments(base)
	out.TrueQ = stats.NormalQuantile(1-p, out.Mu, out.Sigma)
	out.Middle99Width = stats.NormalQuantile(0.995, out.Mu, out.Sigma) -
		stats.NormalQuantile(0.005, out.Mu, out.Sigma)
	condCDF := func(x float64) float64 {
		f0 := stats.NormalCDF(out.TrueQ, out.Mu, out.Sigma)
		if x < out.TrueQ {
			return 0
		}
		return (stats.NormalCDF(x, out.Mu, out.Sigma) - f0) / (1 - f0)
	}
	// The runs are statistically independent (only the master PRNG seed
	// varies, as in the paper's 20 repetitions), so execute them in
	// parallel; each run builds its own engine over the shared immutable
	// tables.
	out.Estimates = make([]float64, runs)
	out.ECDFs = make([][2][]float64, runs)
	out.KS = make([]float64, runs)
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for run := 0; run < runs; run++ {
		wg.Add(1)
		go func(run int) {
			defer wg.Done()
			eRun := mcdbrWithSeed(base, seed+uint64(run)*7919+1, opts...)
			tr, err := TPCHQuery(eRun).TailSample(p, 100, mcdbr.TailSampleOptions{
				TotalSamples: 1000, ForceM: 5,
			})
			if err != nil {
				errs[run] = err
				return
			}
			// The paper records the minimum tail sample as the quantile
			// estimate for each run.
			out.Estimates[run] = tr.Min()
			xs, fs := tr.ECDF().Points()
			out.ECDFs[run] = [2][]float64{xs, fs}
			out.KS[run] = tr.ECDF().KSDistance(condCDF)
		}(run)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mcdbrWithSeed clones an engine's tables and definitions under a new
// master seed; runs differ only in PRNG randomness, as in the paper.
func mcdbrWithSeed(e *mcdbr.Engine, seed uint64, opts ...mcdbr.Option) *mcdbr.Engine {
	out := mcdbr.New(append([]mcdbr.Option{mcdbr.WithSeed(seed), mcdbr.WithWindow(1000)}, opts...)...)
	for _, name := range e.Catalog().Names() {
		t, _ := e.Table(name)
		out.RegisterTable(t)
	}
	if rt, ok := e.RandomTableDef("random_ord"); ok {
		_ = out.DefineRandomTable(*rt)
	}
	return out
}

// Print writes the Figure 5 summary and per-run rows.
func (r *E2Result) Print(w io.Writer) {
	s := stats.Summarize(r.Estimates)
	fmt.Fprintf(w, "E2: Figure 5 accuracy (%d runs)\n", r.Runs)
	fmt.Fprintf(w, "  query-result distribution: N(%.4g, %.4g^2)\n", r.Mu, r.Sigma)
	fmt.Fprintf(w, "  true 0.99902-quantile: %.6g\n", r.TrueQ)
	fmt.Fprintf(w, "  mean quantile estimate: %.6g (bias %.3g)\n", s.Mean, s.Mean-r.TrueQ)
	fmt.Fprintf(w, "  empirical SE of estimates: %.4g\n", s.Std)
	fmt.Fprintf(w, "  middle-99%% width: %.4g -> SE is %.1f%% of width  [paper: 265/2503 ≈ 10%%]\n",
		r.Middle99Width, 100*s.Std/r.Middle99Width)
	for i, ks := range r.KS {
		fmt.Fprintf(w, "  run %2d: estimate %.6g, KS vs analytic tail CDF %.3f\n", i+1, r.Estimates[i], ks)
	}
}

// PrintECDFs emits the Figure 5 plot data: analytic conditional CDF plus
// every run's empirical tail CDF as x,F pairs (CSV-ish, one series block
// per run).
func (r *E2Result) PrintECDFs(w io.Writer) {
	fmt.Fprintf(w, "# Figure 5 data: analytic conditional CDF then %d empirical tail CDFs\n", r.Runs)
	f0 := stats.NormalCDF(r.TrueQ, r.Mu, r.Sigma)
	tailMass := 1 - f0
	// Span the tail from the true quantile out to where only 1% of the
	// tail mass remains.
	xMax := stats.NormalQuantile(1-tailMass/100, r.Mu, r.Sigma)
	fmt.Fprintln(w, "series,x,F")
	for i := 0; i <= 100; i++ {
		x := r.TrueQ + float64(i)/100*(xMax-r.TrueQ)
		f := (stats.NormalCDF(x, r.Mu, r.Sigma) - f0) / tailMass
		fmt.Fprintf(w, "analytic,%.6g,%.6f\n", x, f)
	}
	for run, series := range r.ECDFs {
		xs, fs := series[0], series[1]
		for i := range xs {
			fmt.Fprintf(w, "run%02d,%.6g,%.6f\n", run+1, xs[i], fs[i])
		}
	}
}

// E3Result holds the §1 motivation numbers.
type E3Result struct {
	P5Sigma         float64
	RepsPerHit      float64
	RepsTailProb    float64
	RepsQuantile    float64
	MeasuredHitReps int
	MeasuredHit     bool
	MeasuredCutoffP float64
}

// RunE3 reproduces the introduction's naive-Monte-Carlo cost numbers
// analytically and measures reps-to-first-hit at a feasible tail depth.
func RunE3(seed uint64, opts ...mcdbr.Option) (*E3Result, error) {
	out := &E3Result{}
	out.P5Sigma = 1 - stats.StdNormalCDF(5)
	out.RepsPerHit = naive.ExpectedRepsPerTailHit(out.P5Sigma)
	out.RepsTailProb = naive.RepsForTailProbability(out.P5Sigma, 0.01, 0.95)
	out.RepsQuantile = naive.RepsForQuantile(0.001, 10e6, 1e6, 0.01*1e6, 0.95)

	// Measured: 20-customer loss sum, cutoff at the 0.999 quantile; naive
	// needs ~1000 reps per hit.
	out.MeasuredCutoffP = 0.001
	e := mcdbr.New(append([]mcdbr.Option{mcdbr.WithSeed(seed), mcdbr.WithWindow(4096)}, opts...)...)
	e.RegisterTable(workload.LossMeans(20, 2, 8, seed))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		return nil, err
	}
	tbl, _ := e.Table("means")
	mu := 0.0
	for _, r := range tbl.Rows() {
		mu += r[1].Float()
	}
	cutoff := stats.NormalQuantile(1-out.MeasuredCutoffP, mu, math.Sqrt(20))
	d, err := e.Query().From("losses", "").SelectSum(expr.C("val")).MonteCarlo(20000)
	if err != nil {
		return nil, err
	}
	for i, s := range d.Samples {
		if s >= cutoff {
			out.MeasuredHitReps = i + 1
			out.MeasuredHit = true
			break
		}
	}
	if !out.MeasuredHit {
		out.MeasuredHitReps = len(d.Samples)
	}
	return out, nil
}

// Print writes the motivation table.
func (r *E3Result) Print(w io.Writer) {
	fmt.Fprintf(w, "E3: §1 naive Monte Carlo cost in the tail\n")
	fmt.Fprintf(w, "  P(totalLoss >= $15M) at 5 sigma: %.3g\n", r.P5Sigma)
	fmt.Fprintf(w, "  expected reps per tail hit: %.3g   [paper: ~3.5 million]\n", r.RepsPerHit)
	fmt.Fprintf(w, "  reps for 1%%-accurate tail probability (95%% conf): %.3g   [paper: ~130 billion]\n", r.RepsTailProb)
	fmt.Fprintf(w, "  reps for 0.999-quantile to 1%% of sigma (95%% conf): %.3g   [paper: ~ten million]\n", r.RepsQuantile)
	fmt.Fprintf(w, "  measured: first hit beyond the %.3g tail after %d reps (hit=%v, E=%.0f)\n",
		r.MeasuredCutoffP, r.MeasuredHitReps, r.MeasuredHit, 1/r.MeasuredCutoffP)
}

// E4Row is one row of the parameter-selection table.
type E4Row struct {
	N          int
	P          float64
	MStar      int
	PPerStep   float64
	AnalyticU  float64
	SimulatedU float64
	WN         float64
}

// RunE4 regenerates the Appendix C parameter study: Theorem 1 m*, the
// per-step tail probability, analytic vs simulated MSRE, and w(N).
func RunE4(seed uint64) ([]E4Row, error) {
	var rows []E4Row
	for _, tc := range []struct {
		N int
		p float64
	}{
		{100, 0.01}, {200, 0.01}, {500, 0.001}, {1000, 0.001}, {2000, 0.0001},
	} {
		params, err := tail.Choose(tc.N, tc.p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E4Row{
			N: tc.N, P: tc.p, MStar: params.M, PPerStep: params.PPerStep,
			AnalyticU:  params.MSRE,
			SimulatedU: tail.SimulateMSRE(tc.N, params.M, tc.p, 3000, seed),
			WN:         tail.W(tc.N, tc.p),
		})
	}
	return rows, nil
}

// PrintE4 writes the parameter table.
func PrintE4(w io.Writer, rows []E4Row) {
	fmt.Fprintln(w, "E4: Appendix C parameter selection")
	fmt.Fprintf(w, "  %6s %8s %4s %9s %12s %12s %10s\n", "N", "p", "m*", "p^(1/m*)", "MSRE(analytic)", "MSRE(sim)", "w(N)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6d %8.5f %4d %9.4f %12.4g %12.4g %10.4g\n",
			r.N, r.P, r.MStar, r.PPerStep, r.AnalyticU, r.SimulatedU, r.WN)
	}
	fmt.Fprintln(w, "  [paper worked example: p=0.001, m=4 -> per-step quantile 0.82]")
}

// E5Row is one row of the heavy-tail study.
type E5Row struct {
	Dist             string
	CandidatesPerUpd float64
	GiveUpFrac       float64
	Quantile         float64
}

// RunE5 measures rejection-sampling cost per update for light- vs
// heavy-tailed marginals through the full engine (Appendix B): SUM over 10
// i.i.d. values at p=0.01, with candidates capped per update.
func RunE5(seed uint64, opts ...mcdbr.Option) ([]E5Row, error) {
	cases := []struct {
		name   string
		vgName string
		params []expr.Expr
	}{
		{"Normal(0,1)", "Normal", []expr.Expr{expr.F(0), expr.F(1)}},
		{"Lognormal(0,2)", "Lognormal", []expr.Expr{expr.F(0), expr.F(2)}},
		{"Pareto(1,1.2)", "Pareto", []expr.Expr{expr.F(1), expr.F(1.2)}},
	}
	var rows []E5Row
	for _, tc := range cases {
		e := mcdbr.New(append([]mcdbr.Option{mcdbr.WithSeed(seed), mcdbr.WithWindow(4096)}, opts...)...)
		e.RegisterTable(workload.HeavyTailMeans(10, 1))
		if err := e.DefineRandomTable(mcdbr.RandomTable{
			Name: "vals", ParamTable: "params", VG: tc.vgName,
			VGParams: tc.params,
			Columns:  []mcdbr.RandomCol{{Name: "id", FromParam: "id"}, {Name: "v", VGOut: 0}},
		}); err != nil {
			return nil, err
		}
		tr, err := e.Query().From("vals", "").SelectSum(expr.C("v")).
			TailSample(0.01, 50, mcdbr.TailSampleOptions{
				TotalSamples: 300, MaxTriesPerUpdate: 2000,
			})
		if err != nil {
			return nil, err
		}
		var cand, acc, giveups int64
		for _, it := range tr.Diag.Iters {
			cand += it.Candidates
			acc += it.Accepts
			giveups += it.GiveUps
		}
		updates := acc + giveups
		row := E5Row{Dist: tc.name, Quantile: tr.QuantileEstimate}
		if updates > 0 {
			row.CandidatesPerUpd = float64(cand) / float64(updates)
			row.GiveUpFrac = float64(giveups) / float64(updates)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E6Result holds the adaptive-stopping study: the same query run with a
// fixed replicate budget and with UNTIL ERROR early stopping at an
// accuracy the fixed run also achieves.
type E6Result struct {
	TargetRelError float64
	Confidence     float64
	FixedN         int
	FixedSeconds   float64
	FixedMean      float64
	FixedRelErr    float64 // CI half-width / mean of the full fixed run
	AdaptSamples   int
	AdaptRounds    int
	AdaptSeconds   float64
	AdaptMean      float64
	AdaptRelErr    float64
	Converged      bool
	AnalyticMu     float64
	Speedup        float64 // FixedSeconds / AdaptSeconds
	SamplesSaved   float64 // 1 - AdaptSamples/FixedN
}

// RunE6 measures what confidence-interval early stopping buys on a
// low-variance aggregate: SUM over the TPC-H-like join, fixed at fixedN
// Monte Carlo replicates vs adaptive UNTIL ERROR < target at the given
// confidence with the same budget as a cap. Both runs share one engine
// seed, so the adaptive run's replicates are a bit-identical prefix of
// the fixed run's.
func RunE6(scaleDiv, fixedN int, target, confidence float64, seed uint64, opts ...mcdbr.Option) (*E6Result, error) {
	res := &E6Result{TargetRelError: target, Confidence: confidence, FixedN: fixedN}

	e, err := TPCHTimingEngine(scaleDiv, seed, opts...)
	if err != nil {
		return nil, err
	}
	res.AnalyticMu, _ = TPCHAnalyticMoments(e)

	start := time.Now()
	samples, err := TPCHQuery(e).MonteCarlo(fixedN)
	if err != nil {
		return nil, err
	}
	res.FixedSeconds = time.Since(start).Seconds()
	var acc stats.Welford
	acc.AddAll(samples.Samples)
	res.FixedMean = acc.Mean()
	res.FixedRelErr = acc.RelHalfWidth(confidence)

	// A fresh engine with the same seed replays the identical replicate
	// stream, so the comparison is sample-for-sample fair.
	e2, err := TPCHTimingEngine(scaleDiv, seed, opts...)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	_, rep, err := TPCHQuery(e2).Until(target, confidence, fixedN).MonteCarloAdaptive()
	if err != nil {
		return nil, err
	}
	res.AdaptSeconds = time.Since(start).Seconds()
	res.AdaptSamples = rep.SamplesUsed
	res.AdaptRounds = rep.Rounds
	res.Converged = rep.Converged
	res.AdaptMean = rep.CIs[0].Mean
	res.AdaptRelErr = rep.CIs[0].RelError
	if res.AdaptSeconds > 0 {
		res.Speedup = res.FixedSeconds / res.AdaptSeconds
	}
	res.SamplesSaved = 1 - float64(res.AdaptSamples)/float64(res.FixedN)
	return res, nil
}

// Print writes the adaptive-stopping comparison.
func (r *E6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "E6: adaptive stopping (UNTIL ERROR < %g AT %.0f%%, cap %d) vs fixed MONTECARLO(%d)\n",
		r.TargetRelError, 100*r.Confidence, r.FixedN, r.FixedN)
	fmt.Fprintf(w, "  fixed:    %d samples in %.3fs, mean %.6g (rel half-width %.2e)\n",
		r.FixedN, r.FixedSeconds, r.FixedMean, r.FixedRelErr)
	status := "converged"
	if !r.Converged {
		status = "hit cap"
	}
	fmt.Fprintf(w, "  adaptive: %d samples in %.3fs over %d rounds, mean %.6g (rel half-width %.2e, %s)\n",
		r.AdaptSamples, r.AdaptSeconds, r.AdaptRounds, r.AdaptMean, r.AdaptRelErr, status)
	fmt.Fprintf(w, "  analytic mean %.6g; speedup %.1fx, samples saved %.0f%%\n",
		r.AnalyticMu, r.Speedup, 100*r.SamplesSaved)
}

// PrintE5 writes the regime table.
func PrintE5(w io.Writer, rows []E5Row) {
	fmt.Fprintln(w, "E5: Appendix B light- vs heavy-tail rejection cost (SUM of 10 iid, p=0.01)")
	fmt.Fprintf(w, "  %-16s %18s %12s %14s\n", "marginal", "candidates/update", "give-up frac", "quantile est.")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %18.1f %12.3f %14.4g\n", r.Dist, r.CandidatesPerUpd, r.GiveUpFrac, r.Quantile)
	}
	fmt.Fprintln(w, "  [paper: light-tailed aggregates accept cheaply; subexponential marginals reject en masse]")
}
