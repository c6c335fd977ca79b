package gibbs

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vg"
)

// lossCatalog builds the paper §2 means table with the given per-customer
// means.
func lossCatalog(meansVals []float64) *storage.Catalog {
	cat := storage.NewCatalog()
	means := storage.NewTable("means", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "m", Kind: types.KindFloat},
	))
	for i, m := range meansVals {
		means.MustAppend(types.Row{types.NewInt(int64(i + 1)), types.NewFloat(m)})
	}
	cat.Put(means)
	return cat
}

// lossPlan builds Scan(means) -> Seed(Normal(m, variance)) -> Instantiate.
func lossPlan(t testing.TB, ws *exec.Workspace, variance float64) exec.Node {
	t.Helper()
	normal, _ := vg.NewRegistry().Lookup("Normal")
	scan, err := exec.NewScan(ws.Catalog, "means", "means")
	if err != nil {
		t.Fatal(err)
	}
	seed, err := exec.NewSeed(scan, normal,
		[]expr.Expr{expr.C("means.m"), expr.F(variance)}, []string{"losses.val"})
	if err != nil {
		t.Fatal(err)
	}
	return &exec.Instantiate{Child: seed}
}

func sumQuery() Query {
	return Query{Agg: exec.AggSpec{Kind: exec.AggSum, Expr: expr.C("losses.val")}}
}

func TestConfigValidation(t *testing.T) {
	cat := lossCatalog([]float64{3})
	bad := []Config{
		{N: 1, M: 5, P: 0.01, L: 4},
		{N: 4, M: 0, P: 0.01, L: 4},
		{N: 4, M: 5, P: 0, L: 4},
		{N: 4, M: 5, P: 1, L: 4},
		{N: 4, M: 5, P: 0.01, L: 0},
		{N: 4, M: 5, P: 0.01, L: 4, K: -1},
	}
	for i, cfg := range bad {
		ws := exec.NewWorkspace(cat, prng.NewStream(1), 64)
		plan := lossPlan(t, ws, 1)
		if _, err := Run(ws, plan, sumQuery(), cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	// Window smaller than N must be rejected.
	ws := exec.NewWorkspace(cat, prng.NewStream(1), 2)
	plan := lossPlan(t, ws, 1)
	if _, err := Run(ws, plan, sumQuery(), Config{N: 8, M: 2, P: 0.1, L: 4}); err == nil {
		t.Error("window < N should be rejected")
	}
}

func TestFig1Mechanics(t *testing.T) {
	// The paper's Fig. 1 example: 3 customers with means {3,4,5},
	// variance 1, p = 1/32, n = 4, m = 5, k = 1. Our PRNG differs from the
	// paper's so the exact values differ, but the mechanics must hold:
	// cutoffs increase monotonically across the 5 iterations, and every
	// final sample meets the final cutoff.
	cat := lossCatalog([]float64{3, 4, 5})
	ws := exec.NewWorkspace(cat, prng.NewStream(2026), 512)
	plan := lossPlan(t, ws, 1)
	res, err := Run(ws, plan, sumQuery(), Config{N: 4, M: 5, P: 1.0 / 32, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cutoffs) != 5 {
		t.Fatalf("cutoffs = %v", res.Cutoffs)
	}
	for i := 1; i < len(res.Cutoffs); i++ {
		if res.Cutoffs[i] < res.Cutoffs[i-1] {
			t.Fatalf("cutoff decreased at step %d: %v", i, res.Cutoffs)
		}
	}
	if len(res.TailSamples) != 4 {
		t.Fatalf("tail samples = %d", len(res.TailSamples))
	}
	for _, q := range res.TailSamples {
		if q < res.Quantile {
			t.Fatalf("tail sample %g below quantile estimate %g", q, res.Quantile)
		}
	}
	// p^{i/m} trajectory: (1/32)^{1/5} = 1/2 per step.
	for i, it := range res.Iters {
		want := math.Pow(1.0/32, float64(i+1)/5)
		if math.Abs(it.CurQuantile-want) > 1e-12 {
			t.Fatalf("step %d CurQuantile = %g, want %g", i, it.CurQuantile, want)
		}
	}
}

func TestTailSamplingAccuracyAgainstAnalyticNormal(t *testing.T) {
	// SUM of 20 independent N(i,1) variables is N(sum, 20). Walk out to
	// the 0.99-quantile and check the estimate across independent runs.
	meansVals := make([]float64, 20)
	mu := 0.0
	for i := range meansVals {
		meansVals[i] = float64(i%5) + 1
		mu += meansVals[i]
	}
	sigma := math.Sqrt(20)
	trueQ := stats.NormalQuantile(0.99, mu, sigma)

	const runs = 12
	ests := make([]float64, 0, runs)
	var allSamples []float64
	for r := 0; r < runs; r++ {
		cat := lossCatalog(meansVals)
		ws := exec.NewWorkspace(cat, prng.NewStream(uint64(1000+r)), 4096)
		plan := lossPlan(t, ws, 1)
		res, err := Run(ws, plan, sumQuery(), Config{N: 100, M: 2, P: 0.01, L: 50})
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, res.Quantile)
		allSamples = append(allSamples, res.TailSamples...)
	}
	s := stats.Summarize(ests)
	// The estimator should be close to truth: |bias| within a few standard
	// errors and the spread small relative to the distribution width.
	if math.Abs(s.Mean-trueQ) > 4*s.Std/math.Sqrt(runs)+0.5 {
		t.Fatalf("quantile estimate mean %g vs true %g (std %g)", s.Mean, trueQ, s.Std)
	}
	if s.Std > sigma {
		t.Fatalf("estimator std %g too large", s.Std)
	}
	// All tail samples exceed the (conservative) true quantile minus noise.
	low := 0
	for _, q := range allSamples {
		if q < trueQ-2*sigma {
			low++
		}
	}
	if low > 0 {
		t.Fatalf("%d tail samples far below the true quantile", low)
	}
}

func TestTailSamplesDistribution(t *testing.T) {
	// Tail samples should follow the conditioned law: for a normal sum
	// conditioned on exceeding the q-quantile, compare the empirical tail
	// CDF with the analytic conditional CDF via KS.
	meansVals := []float64{2, 3, 4, 5, 6, 7, 8, 9}
	mu, sigma := 44.0, math.Sqrt(8)
	cat := lossCatalog(meansVals)
	var all []float64
	for r := 0; r < 10; r++ {
		ws := exec.NewWorkspace(cat, prng.NewStream(uint64(7000+r)), 4096)
		plan := lossPlan(t, ws, 1)
		res, err := Run(ws, plan, sumQuery(), Config{N: 200, M: 2, P: 0.04, L: 100, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res.TailSamples...)
	}
	trueQ := stats.NormalQuantile(0.96, mu, sigma)
	condCDF := func(x float64) float64 {
		if x < trueQ {
			return 0
		}
		f0 := stats.NormalCDF(trueQ, mu, sigma)
		return (stats.NormalCDF(x, mu, sigma) - f0) / (1 - f0)
	}
	e := stats.NewECDF(all)
	d := e.KSDistance(condCDF)
	// Samples are not fully independent across L within a run and the
	// cutoff is estimated, so allow a generous band; a broken sampler
	// produces d ~ 0.5.
	if d > 0.2 {
		t.Fatalf("KS distance to conditional law = %g", d)
	}
}

func TestCountAggregate(t *testing.T) {
	// COUNT of tuples with val > m+1: per customer ~ Bernoulli(0.159);
	// walking the count out to its upper tail must produce counts near the
	// maximum (all 12 customers in the tail).
	meansVals := make([]float64, 12)
	for i := range meansVals {
		meansVals[i] = 5
	}
	cat := lossCatalog(meansVals)
	ws := exec.NewWorkspace(cat, prng.NewStream(5), 4096)
	plan := lossPlan(t, ws, 1)
	q := Query{Agg: exec.AggSpec{Kind: exec.AggCount}, FinalPred: expr.B(expr.OpGt, expr.C("losses.val"), expr.F(6))}
	res, err := Run(ws, plan, q, Config{N: 100, M: 2, P: 0.01, L: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Binomial(12, 0.159): mean 1.9, 0.99-quantile is 6.
	if res.Quantile < 4 || res.Quantile > 12 {
		t.Fatalf("count quantile = %g", res.Quantile)
	}
	for _, s := range res.TailSamples {
		if s < res.Quantile {
			t.Fatalf("tail count %g below cutoff %g", s, res.Quantile)
		}
		if s != math.Trunc(s) {
			t.Fatalf("count sample %g not integral", s)
		}
	}
}

func TestAvgAggregate(t *testing.T) {
	meansVals := []float64{3, 4, 5, 6}
	cat := lossCatalog(meansVals)
	ws := exec.NewWorkspace(cat, prng.NewStream(6), 2048)
	plan := lossPlan(t, ws, 1)
	q := Query{Agg: exec.AggSpec{Kind: exec.AggAvg, Expr: expr.C("losses.val")}}
	res, err := Run(ws, plan, q, Config{N: 100, M: 2, P: 0.01, L: 20})
	if err != nil {
		t.Fatal(err)
	}
	// AVG of 4 N(mu_i,1) has mean 4.5, sd 0.5; 0.99-quantile ≈ 5.66.
	want := stats.NormalQuantile(0.99, 4.5, 0.5)
	if math.Abs(res.Quantile-want) > 1.0 {
		t.Fatalf("avg quantile = %g, want ≈ %g", res.Quantile, want)
	}
}

func TestLowerTail(t *testing.T) {
	meansVals := []float64{3, 4, 5, 6}
	cat := lossCatalog(meansVals)
	ws := exec.NewWorkspace(cat, prng.NewStream(7), 2048)
	plan := lossPlan(t, ws, 1)
	q := Query{Agg: exec.AggSpec{Kind: exec.AggSum, Expr: expr.C("losses.val")}, LowerTail: true}
	res, err := Run(ws, plan, q, Config{N: 100, M: 2, P: 0.01, L: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Lower 0.01-quantile of N(18, 4): ≈ 18 - 2*2.326 = 13.3.
	want := stats.NormalQuantile(0.01, 18, 2)
	if math.Abs(res.Quantile-want) > 1.5 {
		t.Fatalf("lower quantile = %g, want ≈ %g", res.Quantile, want)
	}
	for _, s := range res.TailSamples {
		if s > res.Quantile {
			t.Fatalf("lower-tail sample %g above cutoff %g", s, res.Quantile)
		}
	}
}

func TestReplenishmentTriggersAndPreservesCorrectness(t *testing.T) {
	// A tiny window forces repeated §9 replenishing runs.
	meansVals := []float64{3, 4, 5}
	cat := lossCatalog(meansVals)
	ws := exec.NewWorkspace(cat, prng.NewStream(8), 16)
	plan := lossPlan(t, ws, 1)
	res, err := Run(ws, plan, sumQuery(), Config{N: 16, M: 4, P: 0.01, L: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replenishments == 0 {
		t.Fatal("expected replenishing runs with window=16")
	}
	for _, s := range res.TailSamples {
		if s < res.Quantile {
			t.Fatalf("sample %g below cutoff %g after replenishment", s, res.Quantile)
		}
	}
	// Sanity: quantile in a plausible band for N(12, sqrt(3)).
	want := stats.NormalQuantile(0.99, 12, math.Sqrt(3))
	if math.Abs(res.Quantile-want) > 3 {
		t.Fatalf("quantile = %g, want ≈ %g", res.Quantile, want)
	}
}

func TestFinalPredicateSpanningSeeds(t *testing.T) {
	// Two random attributes from different seeds combined in the final
	// predicate — the case that MUST be handled in the looper (App. A).
	cat := lossCatalog([]float64{5, 5, 5})
	ws := exec.NewWorkspace(cat, prng.NewStream(9), 2048)
	plan := twoSeedPlan(t, ws)
	q := Query{
		Agg:       exec.AggSpec{Kind: exec.AggSum, Expr: expr.B(expr.OpSub, expr.C("b"), expr.C("a"))},
		FinalPred: expr.B(expr.OpGt, expr.C("b"), expr.C("a")),
	}
	res, err := Run(ws, plan, q, Config{N: 50, M: 2, P: 0.04, L: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quantile <= 0 {
		t.Fatalf("sum of positive parts should be positive, got %g", res.Quantile)
	}
	for _, s := range res.TailSamples {
		if s < res.Quantile {
			t.Fatalf("sample %g below cutoff %g", s, res.Quantile)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	cat := lossCatalog([]float64{3, 4, 5})
	ws := exec.NewWorkspace(cat, prng.NewStream(10), 1024)
	plan := lossPlan(t, ws, 1)
	res, err := Run(ws, plan, sumQuery(), Config{N: 20, M: 3, P: 0.05, L: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 3 {
		t.Fatalf("iters = %d", len(res.Iters))
	}
	for i, it := range res.Iters {
		if it.Candidates < it.Accepts {
			t.Fatalf("step %d: candidates %d < accepts %d", i, it.Candidates, it.Accepts)
		}
		if it.Accepts == 0 && it.GiveUps == 0 {
			t.Fatalf("step %d recorded no update outcomes", i)
		}
	}
}
