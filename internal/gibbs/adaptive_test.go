package gibbs

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/prng"
)

// adaptiveSetup builds a fresh workspace + single-SUM aggregate over the
// loss plan for each run (workspaces are single-use).
func adaptiveSetup(t testing.TB, seed uint64, window int, variance float64, grouped bool) (*exec.Workspace, *exec.Aggregate) {
	t.Helper()
	cat := lossCatalog([]float64{30, 40, 50, 60})
	ws := exec.NewWorkspace(cat, prng.NewStream(seed), window)
	plan := lossPlan(t, ws, variance)
	var gb []expr.Expr
	var names []string
	if grouped {
		gb, names = []expr.Expr{expr.C("means.cid")}, []string{"cid"}
	}
	return ws, aggOver(t, plan, gb, names)
}

// TestAdaptiveBitIdentity: stopping the round driver after m replicates
// must be bit-identical to a fixed monteCarloGrouped(m) run — at every
// worker count, grouped and ungrouped.
func TestAdaptiveBitIdentity(t *testing.T) {
	rule := StopRule{TargetRelError: 0.02, Confidence: 0.95, MaxSamples: 4096, FirstRound: 32}
	for _, grouped := range []bool{false, true} {
		ws, agg := adaptiveSetup(t, 99, 64, 1, grouped)
		res, err := MonteCarloGroupedAdaptive(ws, agg, nil, rule, 1, nil)
		if err != nil {
			t.Fatalf("grouped=%v: %v", grouped, err)
		}
		if !res.Converged {
			t.Fatalf("grouped=%v: low-variance run did not converge (m=%d)", grouped, res.SamplesUsed)
		}
		m := res.SamplesUsed
		wsF, aggF := adaptiveSetup(t, 99, m, 1, grouped)
		fixed, err := monteCarloGrouped(wsF, aggF, nil, m)
		if err != nil {
			t.Fatalf("grouped=%v: fixed: %v", grouped, err)
		}
		for _, workers := range []int{1, 2, 5} {
			wsW, aggW := adaptiveSetup(t, 99, 64, 1, grouped)
			resW, err := MonteCarloGroupedAdaptive(wsW, aggW, nil, rule, workers, nil)
			if err != nil {
				t.Fatalf("grouped=%v workers=%d: %v", grouped, workers, err)
			}
			if resW.SamplesUsed != m {
				t.Fatalf("grouped=%v workers=%d: stopped at %d, want %d", grouped, workers, resW.SamplesUsed, m)
			}
			for g := range fixed.Keys {
				for a := range fixed.Samples[g] {
					for r := range fixed.Samples[g][a] {
						if resW.Runs.Samples[g][a][r] != fixed.Samples[g][a][r] {
							t.Fatalf("grouped=%v workers=%d g=%d a=%d r=%d: adaptive %v vs fixed %v",
								grouped, workers, g, a, r, resW.Runs.Samples[g][a][r], fixed.Samples[g][a][r])
						}
					}
				}
			}
		}
	}
}

// TestAdaptiveEarlyStopSavesSamples: a low-variance estimator must stop
// well before MaxSamples, a loose target must stop earlier than a tight
// one, and the round schedule must be geometric (32, 96, 224, ...).
func TestAdaptiveEarlyStopSavesSamples(t *testing.T) {
	ws, agg := adaptiveSetup(t, 7, 64, 0.01, false)
	var totals []int
	res, err := MonteCarloGroupedAdaptive(ws, agg, nil,
		StopRule{TargetRelError: 0.01, MaxSamples: 8192},
		2, func(u RoundUpdate) { totals = append(totals, u.SamplesUsed) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d samples", res.SamplesUsed)
	}
	if res.SamplesUsed >= 8192/4 {
		t.Errorf("low-variance run used %d of 8192 samples; expected large savings", res.SamplesUsed)
	}
	want := 32
	for i, got := range totals {
		if got != want {
			t.Errorf("round %d cumulative = %d, want %d", i+1, got, want)
		}
		want += 32 << uint(i+1)
	}
	// Tighter target must use at least as many samples.
	ws2, agg2 := adaptiveSetup(t, 7, 64, 0.01, false)
	res2, err := MonteCarloGroupedAdaptive(ws2, agg2, nil,
		StopRule{TargetRelError: 0.0001, MaxSamples: 8192}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SamplesUsed < res.SamplesUsed {
		t.Errorf("tight target used %d samples, loose used %d", res2.SamplesUsed, res.SamplesUsed)
	}
}

// TestAdaptiveMaxSamplesCap: TargetRelError <= 0 disables convergence and
// the driver runs exactly to MaxSamples (the progressive fixed-N shape).
func TestAdaptiveMaxSamplesCap(t *testing.T) {
	ws, agg := adaptiveSetup(t, 3, 64, 1, false)
	res, err := MonteCarloGroupedAdaptive(ws, agg, nil,
		StopRule{TargetRelError: 0, MaxSamples: 100, FirstRound: 16}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesUsed != 100 {
		t.Errorf("SamplesUsed = %d, want MaxSamples=100", res.SamplesUsed)
	}
	if res.Converged {
		t.Error("disabled target must never report convergence")
	}
	if n := len(res.Runs.Samples[0][0]); n != 100 {
		t.Errorf("got %d samples, want 100", n)
	}
	ci := res.CIs[0][0]
	if ci.N != 100 || math.IsNaN(ci.Mean) || ci.HalfWidth <= 0 {
		t.Errorf("final CI snapshot %+v not populated", ci)
	}
}

// TestAdaptiveCancellation: a cancelled workspace context aborts the
// round driver with the cancellation cause.
func TestAdaptiveCancellation(t *testing.T) {
	ws, agg := adaptiveSetup(t, 3, 64, 1, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ws.Ctx = ctx
	_, err := MonteCarloGroupedAdaptive(ws, agg, nil, StopRule{TargetRelError: 0.001}, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAdaptiveDegradeOnDeadline: with DegradeOnDeadline set, a deadline
// firing after a completed round yields the partial prefix — bit-identical
// to a fixed run of the same count — with Degraded set, instead of an
// error. The deadline is injected deterministically via a cancel cause
// from the progress callback, so the prefix length is exact.
func TestAdaptiveDegradeOnDeadline(t *testing.T) {
	rule := StopRule{TargetRelError: 1e-9, MaxSamples: 4096, FirstRound: 32, DegradeOnDeadline: true}
	ws, agg := adaptiveSetup(t, 11, 64, 1, true)
	ctx, cancel := context.WithCancelCause(context.Background())
	ws.Ctx = ctx
	res, err := MonteCarloGroupedAdaptive(ws, agg, nil, rule, 2, func(u RoundUpdate) {
		if u.Round == 2 {
			cancel(context.DeadlineExceeded)
		}
	})
	if err != nil {
		t.Fatalf("degradable deadline returned error: %v", err)
	}
	if !res.Degraded || res.Converged {
		t.Fatalf("Degraded=%v Converged=%v, want degraded non-converged", res.Degraded, res.Converged)
	}
	if res.SamplesUsed != 96 {
		t.Fatalf("SamplesUsed = %d, want the two completed rounds (96)", res.SamplesUsed)
	}
	wsF, aggF := adaptiveSetup(t, 11, 96, 1, true)
	fixed, err := monteCarloGrouped(wsF, aggF, nil, 96)
	if err != nil {
		t.Fatal(err)
	}
	for g := range fixed.Keys {
		for a := range fixed.Samples[g] {
			for r := range fixed.Samples[g][a] {
				if res.Runs.Samples[g][a][r] != fixed.Samples[g][a][r] {
					t.Fatalf("g=%d a=%d r=%d: partial %v vs fixed %v",
						g, a, r, res.Runs.Samples[g][a][r], fixed.Samples[g][a][r])
				}
			}
		}
	}
	if ci := res.CIs[0][0]; ci.N == 0 || ci.HalfWidth <= 0 {
		t.Fatalf("degraded result missing CI snapshot: %+v", ci)
	}

	// Without the opt-in, the same deadline is a hard error.
	wsS, aggS := adaptiveSetup(t, 11, 64, 1, true)
	ctxS, cancelS := context.WithCancelCause(context.Background())
	wsS.Ctx = ctxS
	strict := rule
	strict.DegradeOnDeadline = false
	_, err = MonteCarloGroupedAdaptive(wsS, aggS, nil, strict, 2, func(u RoundUpdate) {
		if u.Round == 2 {
			cancelS(context.DeadlineExceeded)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("strict rule err = %v, want DeadlineExceeded", err)
	}

	// A deadline with zero completed rounds has nothing to degrade to.
	wsZ, aggZ := adaptiveSetup(t, 11, 64, 1, true)
	ctxZ, cancelZ := context.WithCancelCause(context.Background())
	cancelZ(context.DeadlineExceeded)
	wsZ.Ctx = ctxZ
	if _, err := MonteCarloGroupedAdaptive(wsZ, aggZ, nil, rule, 2, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("zero-round deadline err = %v, want DeadlineExceeded", err)
	}
}

// TestCancelledWorkspacePropagates: fixed-N runs through the driver, and
// the looper, also honor the workspace context.
func TestCancelledWorkspacePropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ws, agg := adaptiveSetup(t, 3, 64, 1, false)
		ws.Ctx = ctx
		_, err := MonteCarloGroupedAdaptive(ws, agg, nil, StopRule{MaxSamples: 64, FirstRound: 64}, workers, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fixed run workers=%d err = %v, want context.Canceled", workers, err)
		}
	}
	ws3, _ := adaptiveSetup(t, 3, 64, 1, false)
	plan3 := lossPlan(t, ws3, 1)
	ws3.Ctx = ctx
	_, err := Run(ws3, plan3, sumQuery(), Config{N: 8, M: 2, P: 0.1, L: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("looper err = %v, want context.Canceled", err)
	}
}
