// Package naive implements the original-MCDB baseline used throughout the
// paper's comparisons (§1, Appendix D): plain Monte Carlo over tuple
// bundles, with quantile estimation by order statistics, plus the analytic
// sample-size formulas the paper's introduction quotes for why naive Monte
// Carlo fails in the tail.
package naive

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/gibbs"
	"repro/internal/stats"
)

// MonteCarlo runs n Monte Carlo repetitions of the query and returns the n
// query-result samples (original MCDB semantics).
func MonteCarlo(ws *exec.Workspace, plan exec.Node, q gibbs.Query, n int) ([]float64, error) {
	return gibbs.MonteCarlo(ws, plan, q, n)
}

// EstimateQuantile estimates the q-quantile from Monte Carlo samples by the
// order statistic X_(ceil(q n)) — the standard technique the paper cites
// [Serfling, Sec. 2.6].
func EstimateQuantile(samples []float64, q float64) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("naive: no samples")
	}
	return stats.NewECDF(samples).Quantile(q), nil
}

// TailSamples returns the samples at or above the cutoff — what naive MCDB
// must sift its repetitions for, hit by rare hit.
func TailSamples(samples []float64, cutoff float64) []float64 {
	var out []float64
	for _, s := range samples {
		if s >= cutoff {
			out = append(out, s)
		}
	}
	return out
}

// HitRate returns the fraction of samples at or above the cutoff: the
// naive estimator of the tail probability.
func HitRate(samples []float64, cutoff float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return float64(len(TailSamples(samples, cutoff))) / float64(len(samples))
}

// ExpectedRepsPerTailHit returns 1/p: the expected number of naive Monte
// Carlo repetitions per tail observation. For the paper's §1 example
// (normal with mean $10M, sd $1M, tail at $15M, i.e. 5 sigma), this is
// roughly 3.5 million.
func ExpectedRepsPerTailHit(p float64) float64 { return 1 / p }

// RepsForTailProbability returns the number of repetitions needed to
// estimate a tail probability p to within relative error eps with the
// given confidence: n = z^2 (1-p) / (p eps^2). For the §1 example
// (p = P(Z > 5), eps = 0.01, conf = 0.95) this is about 130 billion.
func RepsForTailProbability(p, eps, conf float64) float64 {
	z := stats.StdNormalQuantile(1 - (1-conf)/2)
	return z * z * (1 - p) / (p * eps * eps)
}

// RepsForQuantile returns the repetitions needed to estimate the
// (1-p)-quantile of a N(mu, sigma^2) distribution to within delta with the
// given confidence, using the asymptotic normality of sample quantiles:
// n = z^2 p (1-p) / (f(theta) delta)^2 with f the normal density at the
// quantile [Serfling, Sec. 2.6]. With delta = 1% of the quantile's
// sigma-distance from the mean, the §1 example (p = 0.001) needs on the
// order of ten million repetitions.
func RepsForQuantile(p, mu, sigma, delta, conf float64) float64 {
	z := stats.StdNormalQuantile(1 - (1-conf)/2)
	theta := stats.NormalQuantile(1-p, mu, sigma)
	zq := (theta - mu) / sigma
	f := math.Exp(-zq*zq/2) / (sigma * math.Sqrt(2*math.Pi))
	r := z * math.Sqrt(p*(1-p)) / (f * delta)
	return r * r
}

// RepsToFirstHit runs Monte Carlo in batches until a sample reaches the
// cutoff or maxReps is exhausted, and returns the number of repetitions
// consumed. hit reports whether the cutoff was ever reached: the empirical
// naive cost of a single tail observation. Only its tests call it; the E3
// experiment uses the closed-form sample-size formulas above instead.
func RepsToFirstHit(mk func(batch int) (*exec.Workspace, exec.Node), q gibbs.Query, cutoff float64, batch, maxReps int) (reps int, hit bool, err error) {
	if batch < 1 {
		return 0, false, fmt.Errorf("naive: batch must be >= 1, got %d", batch)
	}
	for reps < maxReps {
		ws, plan := mk(reps)
		samples, err := MonteCarlo(ws, plan, q, batch)
		if err != nil {
			return reps, false, err
		}
		for i, s := range samples {
			if s >= cutoff {
				return reps + i + 1, true, nil
			}
		}
		reps += batch
	}
	return reps, false, nil
}
