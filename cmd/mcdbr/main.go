// Command mcdbr is an interactive/scripted front end to the MCDB-R engine:
// it loads CSV tables, executes SQL-ish statements (the paper's §2
// syntax), and prints result distributions.
//
//	mcdbr -load means=means.csv script.sql
//	echo "SELECT SUM(val) AS t FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(100)" | mcdbr -load means=means.csv
//
// Statements are separated by semicolons. Tail-sampling budgets are set
// with -samples.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/sqlish"
	"repro/internal/storage"
	"repro/mcdbr"
)

type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(s string) error {
	*l = append(*l, s)
	return nil
}

func main() {
	var loads loadFlags
	flag.Var(&loads, "load", "load a CSV table: name=path (repeatable)")
	seed := flag.Uint64("seed", 42, "master PRNG seed")
	window := flag.Int("window", 1024, "stream values materialized per TS-seed per run")
	samples := flag.Int("samples", 0, "tail-sampling budget N (0 = choose via Appendix C)")
	workers := flag.Int("workers", 0, "worker goroutines for replicate-sharded execution (1 = sequential, 0 = NumCPU); results are identical for any value")
	targetErr := flag.Float64("target-err", 0, "run SELECTs adaptively: stop once every estimate's relative CI half-width is below this (0 = fixed-N; overrides UNTIL ERROR in the statement)")
	confidence := flag.Float64("confidence", 0, "CI level for -target-err, e.g. 0.95 (0 = statement value or 95%)")
	maxSamples := flag.Int("max-samples", 0, "cap on adaptive replicates for -target-err (0 = statement value or 65536)")
	flag.Parse()

	ad := adaptiveFlags{targetErr: *targetErr, confidence: *confidence, maxSamples: *maxSamples}
	if err := run(loads, *seed, *window, *samples, *workers, ad, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "mcdbr:", err)
		os.Exit(1)
	}
}

// adaptiveFlags are the CLI's per-run stopping-rule overrides.
type adaptiveFlags struct {
	targetErr  float64
	confidence float64
	maxSamples int
}

func (a adaptiveFlags) set() bool { return a.targetErr > 0 }

func run(loads loadFlags, seed uint64, window, samples, workers int, ad adaptiveFlags, args []string) error {
	engine := mcdbr.New(mcdbr.WithSeed(seed), mcdbr.WithWindow(window), mcdbr.WithParallelism(workers))
	for _, spec := range loads {
		parts := strings.SplitN(spec, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -load %q, want name=path", spec)
		}
		t, err := storage.LoadCSV(parts[0], parts[1])
		if err != nil {
			return err
		}
		engine.RegisterTable(t)
		fmt.Printf("loaded %s\n", t)
	}

	var src []byte
	var err error
	if len(args) > 0 {
		src, err = os.ReadFile(args[0])
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		return err
	}

	opts := mcdbr.TailSampleOptions{TotalSamples: samples}
	for _, stmt := range splitStatements(string(src)) {
		fmt.Printf("> %s\n", condense(stmt))
		res, err := execStatement(engine, stmt, opts, ad)
		if err != nil {
			return err
		}
		printResult(res)
	}
	return nil
}

// execStatement runs one statement, routing SELECTs through a prepared
// query when the -target-err flags ask for an adaptive override (CREATE
// statements are not preparable and never adaptive).
func execStatement(engine *mcdbr.Engine, stmt string, opts mcdbr.TailSampleOptions, ad adaptiveFlags) (*mcdbr.ExecResult, error) {
	if !ad.set() {
		return engine.ExecWithOptions(stmt, opts)
	}
	parsed, err := sqlish.Parse(stmt)
	if err != nil {
		return nil, err
	}
	if _, ok := parsed.(*sqlish.SelectStmt); !ok {
		return engine.ExecWithOptions(stmt, opts)
	}
	pq, err := engine.Prepare(stmt)
	if err != nil {
		return nil, err
	}
	return pq.Run(mcdbr.RunOptions{
		Tail:           opts,
		TargetRelError: ad.targetErr,
		Confidence:     ad.confidence,
		MaxSamples:     ad.maxSamples,
	})
}

// splitStatements splits on semicolons outside single-quoted strings.
func splitStatements(src string) []string { return sqlish.SplitStatements(src) }

func condense(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func printResult(res *mcdbr.ExecResult) {
	defer printAdaptive(res.Adaptive)
	switch res.Kind {
	case mcdbr.ExecCreated:
		fmt.Println("random table defined")
	case mcdbr.ExecScalar:
		fmt.Printf("%g\n", res.Scalar)
	case mcdbr.ExecTable:
		cols := res.Table.Schema().Columns()
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = c.Name
		}
		fmt.Println(strings.Join(names, " | "))
		for _, r := range res.Table.Rows() {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
	case mcdbr.ExecDistribution:
		d := res.Dist
		fmt.Printf("result distribution: n=%d mean=%g sd=%g min=%g max=%g cvar95=%g\n",
			len(d.Samples), d.Mean(), d.Std(), d.ECDF().Min(), d.ECDF().Max(), d.CVaR(0.95))
	case mcdbr.ExecGroupedDistribution:
		g := res.Grouped
		fmt.Printf("grouped result distribution: %d group(s), aggregates: %s\n",
			len(g.Groups), strings.Join(g.AggCols, ", "))
		for i := range g.Groups {
			grp := &g.Groups[i]
			key := grp.KeyString()
			if key == "" {
				key = "(all)"
			}
			for a, d := range grp.Dists {
				fmt.Printf("  %s %s: n=%d mean=%g sd=%g cvar95=%g",
					key, g.AggCols[a], len(d.Samples), d.Mean(), d.Std(), d.CVaR(0.95))
				if grp.Inclusion < 1 {
					fmt.Printf(" (HAVING held in %.0f%% of runs)", 100*grp.Inclusion)
				}
				fmt.Println()
			}
		}
	case mcdbr.ExecGroupedTail:
		gt := res.GroupedTail
		fmt.Printf("grouped tail distribution: %d group(s), aggregate %s\n", len(gt.Groups), gt.AggCol)
		for i := range gt.Groups {
			grp := &gt.Groups[i]
			t := grp.Tail
			fmt.Printf("  %s: quantile estimate %g, expected shortfall %g, %d samples\n",
				grp.KeyString(), t.QuantileEstimate, t.ExpectedShortfall, len(t.Samples))
		}
	case mcdbr.ExecExplained:
		fmt.Print(res.Explain)
	case mcdbr.ExecTail:
		t := res.Tail
		dir := ">="
		if t.Lower {
			dir = "<="
		}
		fmt.Printf("tail distribution (%s quantile, p=%g): quantile estimate %g, expected shortfall (CVaR) %g, %d samples\n",
			dir, t.P, t.QuantileEstimate, t.ExpectedShortfall, len(t.Samples))
		fmt.Printf("  iterations: %d\n", len(t.Diag.Iters))
	}
}

// printAdaptive summarizes an adaptive run's stopping report: replicates
// actually used and the confidence interval of every (group, aggregate)
// estimate at the stop.
func printAdaptive(rep *mcdbr.AdaptiveReport) {
	if rep == nil {
		return
	}
	status := "converged"
	if !rep.Converged {
		status = "hit max samples"
	}
	fmt.Printf("adaptive: %s after %d samples in %d rounds (target rel err %g at %.0f%% confidence, max %d)\n",
		status, rep.SamplesUsed, rep.Rounds, rep.TargetRelError, 100*rep.Confidence, rep.MaxSamples)
	for _, ci := range rep.CIs {
		label := ci.Agg
		if ci.Group != "" {
			label = ci.Group + " " + ci.Agg
		}
		fmt.Printf("  %s: mean %g +/- %g (rel err %g, n=%d)\n", label, ci.Mean, ci.HalfWidth, ci.RelError, ci.N)
	}
}
