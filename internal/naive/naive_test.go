package naive

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/gibbs"
	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vg"
)

func lossSetup(t testing.TB, seed uint64, meansVals []float64, window int) (*exec.Workspace, exec.Node) {
	t.Helper()
	cat := storage.NewCatalog()
	means := storage.NewTable("means", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "m", Kind: types.KindFloat},
	))
	for i, m := range meansVals {
		means.MustAppend(types.Row{types.NewInt(int64(i)), types.NewFloat(m)})
	}
	cat.Put(means)
	normal, _ := vg.NewRegistry().Lookup("Normal")
	ws := exec.NewWorkspace(cat, prng.NewStream(seed), window)
	scan, err := exec.NewScan(cat, "means", "means")
	if err != nil {
		t.Fatal(err)
	}
	sd, err := exec.NewSeed(scan, normal, []expr.Expr{expr.C("m"), expr.F(1)}, []string{"val"})
	if err != nil {
		t.Fatal(err)
	}
	return ws, &exec.Instantiate{Child: sd}
}

func sumQ() gibbs.Query {
	return gibbs.Query{Agg: exec.AggSpec{Kind: exec.AggSum, Expr: expr.C("val")}}
}

func TestMonteCarloMatchesAnalyticDistribution(t *testing.T) {
	// Sum of 5 N(i,1): N(15, 5).
	ws, plan := lossSetup(t, 1, []float64{1, 2, 3, 4, 5}, 4096)
	samples, err := MonteCarlo(ws, plan, sumQ(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4000 {
		t.Fatalf("samples = %d", len(samples))
	}
	s := stats.Summarize(samples)
	if math.Abs(s.Mean-15) > 0.15 {
		t.Fatalf("mean = %g, want 15", s.Mean)
	}
	if math.Abs(s.Var-5) > 0.5 {
		t.Fatalf("var = %g, want 5", s.Var)
	}
	d := stats.NewECDF(samples).KSDistance(func(x float64) float64 {
		return stats.NormalCDF(x, 15, math.Sqrt(5))
	})
	if d > 0.035 {
		t.Fatalf("KS distance to analytic law = %g", d)
	}
}

func TestMonteCarloRepetitionsAreIndependentStreams(t *testing.T) {
	// Consecutive repetitions use consecutive stream elements; correlation
	// across reps should be ~0.
	ws, plan := lossSetup(t, 2, []float64{3, 4}, 2048)
	samples, err := MonteCarlo(ws, plan, sumQ(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	var sx, sy, sxx, syy, sxy float64
	n := float64(len(samples) - 1)
	for i := 0; i+1 < len(samples); i++ {
		x, y := samples[i], samples[i+1]
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	corr := (sxy/n - sx/n*sy/n) / math.Sqrt((sxx/n-sx/n*sx/n)*(syy/n-sy/n*sy/n))
	if math.Abs(corr) > 0.08 {
		t.Fatalf("lag-1 correlation = %g", corr)
	}
}

func TestMonteCarloWindowSmallerThanN(t *testing.T) {
	// Repetitions beyond the window draw their stream values on demand.
	ws, plan := lossSetup(t, 3, []float64{3}, 64)
	samples, err := MonteCarlo(ws, plan, sumQ(), 300)
	if err != nil {
		t.Fatal(err)
	}
	s := stats.Summarize(samples)
	if math.Abs(s.Mean-3) > 0.25 {
		t.Fatalf("mean = %g", s.Mean)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	ws, plan := lossSetup(t, 4, []float64{3}, 64)
	if _, err := MonteCarlo(ws, plan, sumQ(), 0); err == nil {
		t.Fatal("n=0 must error")
	}
}

func TestEstimateQuantile(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q, err := EstimateQuantile(samples, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if q != 9 {
		t.Fatalf("0.9-quantile = %g", q)
	}
	if _, err := EstimateQuantile(nil, 0.5); err == nil {
		t.Fatal("empty sample must error")
	}
}

func TestTailSamplesAndHitRate(t *testing.T) {
	samples := []float64{1, 5, 3, 8, 2}
	tail := TailSamples(samples, 4)
	if len(tail) != 2 {
		t.Fatalf("tail = %v", tail)
	}
	if hr := HitRate(samples, 4); hr != 0.4 {
		t.Fatalf("hit rate = %g", hr)
	}
	if !math.IsNaN(HitRate(nil, 1)) {
		t.Fatal("empty hit rate must be NaN")
	}
}

func TestPaperIntroNumbers(t *testing.T) {
	// §1: normal mean $10M sd $1M; $15M is 5 sigma out.
	p := 1 - stats.StdNormalCDF(5)
	// "roughly 3.5 million Monte Carlo repetitions ... before such an
	// extremely high loss is observed even once".
	reps := ExpectedRepsPerTailHit(p)
	if reps < 3e6 || reps > 4e6 {
		t.Fatalf("expected reps per hit = %g, paper says ~3.5M", reps)
	}
	// "130 billion repetitions are required to estimate the desired
	// probability to within 1% with a confidence of 95%".
	n := RepsForTailProbability(p, 0.01, 0.95)
	if n < 1e11 || n > 1.7e11 {
		t.Fatalf("reps for tail probability = %g, paper says ~130B", n)
	}
	// "roughly ten million Monte Carlo repetitions to estimate [the 0.999
	// quantile] to within 1% with a confidence of 95%" — delta read as 1%
	// of sigma.
	nq := RepsForQuantile(0.001, 10e6, 1e6, 0.01*1e6, 0.95)
	if nq < 1e6 || nq > 1e8 {
		t.Fatalf("reps for quantile = %g, paper says ~10M", nq)
	}
}

func TestHitRateMatchesAnalyticTail(t *testing.T) {
	ws, plan := lossSetup(t, 5, []float64{1, 2, 3, 4, 5}, 8192)
	samples, err := MonteCarlo(ws, plan, sumQ(), 8000)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := stats.NormalQuantile(0.95, 15, math.Sqrt(5))
	hr := HitRate(samples, cutoff)
	if math.Abs(hr-0.05) > 0.012 {
		t.Fatalf("hit rate = %g, want ~0.05", hr)
	}
}

func TestRepsToFirstHit(t *testing.T) {
	mk := func(off int) (*exec.Workspace, exec.Node) {
		ws, plan := lossSetup(t, uint64(100+off), []float64{3, 4, 5}, 512)
		return ws, plan
	}
	// Cutoff at the ~0.9 quantile of N(12, 3): hits arrive within ~10 reps
	// on average.
	cutoff := stats.NormalQuantile(0.9, 12, math.Sqrt(3))
	reps, hit, err := RepsToFirstHit(mk, sumQ(), cutoff, 100, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("expected a hit")
	}
	if reps < 1 || reps > 1000 {
		t.Fatalf("reps = %d", reps)
	}
	// Unreachable cutoff exhausts the budget.
	reps, hit, err = RepsToFirstHit(mk, sumQ(), 1e12, 100, 300)
	if err != nil || hit || reps != 300 {
		t.Fatalf("unreachable: reps=%d hit=%v err=%v", reps, hit, err)
	}
	if _, _, err := RepsToFirstHit(mk, sumQ(), 0, 0, 10); err == nil {
		t.Fatal("batch=0 must error")
	}
}
