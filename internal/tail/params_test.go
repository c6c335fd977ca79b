package tail

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

func TestGMatchesHcAtEqualSplit(t *testing.T) {
	N, p := 1000.0, 0.001
	for _, c := range []float64{1, 2} {
		for m := 1; m <= 10; m++ {
			nu := make([]float64, m)
			rho := make([]float64, m)
			for i := range nu {
				nu[i] = N / float64(m)
				rho[i] = math.Pow(p, 1/float64(m))
			}
			if g, h := G(N, m, p, c), Hc(nu, rho, c); math.Abs(g-h) > 1e-12*h {
				t.Fatalf("g_%d(c=%g) = %g, Hc = %g", m, c, g, h)
			}
		}
	}
}

func TestHcBounds(t *testing.T) {
	// p <= h_c <= 1 for feasible parameters (Appendix C).
	N, p := 500.0, 0.01
	for m := 1; m <= 20; m++ {
		for _, c := range []float64{1, 2} {
			g := G(N, m, p, c)
			if g < p-1e-12 || g > 1+1e-12 {
				t.Fatalf("g_%d = %g outside [p, 1]", m, g)
			}
		}
	}
}

func TestOptimalMMatchesBruteForce(t *testing.T) {
	cases := []struct {
		N int
		p float64
	}{
		{100, 0.01}, {500, 0.001}, {1000, 0.001}, {2000, 0.0001}, {50, 0.1},
	}
	for _, tc := range cases {
		for _, c := range []float64{1, 2} {
			got := OptimalM(tc.N, tc.p, c)
			// Brute force the global minimizer of g_m over 1..N (g is
			// unimodal, so the first-ascent rule and argmin agree).
			best, bestV := 1, math.Inf(1)
			limit := tc.N
			if limit > 200 {
				limit = 200
			}
			for m := 1; m <= limit; m++ {
				if v := G(float64(tc.N), m, tc.p, c); v < bestV {
					best, bestV = m, v
				}
			}
			if got != best {
				t.Errorf("OptimalM(%d, %g, %g) = %d, brute force %d", tc.N, tc.p, c, got, best)
			}
		}
	}
}

func TestPaperWorkedExample(t *testing.T) {
	// §3.3: "for typical values of, say, p = 0.001 and m = 4 ... at each
	// step we merely need to estimate a 0.82-quantile."
	perStep := 1 - math.Pow(0.001, 0.25)
	if math.Abs(perStep-0.822) > 0.001 {
		t.Fatalf("per-step quantile = %g, paper says ≈0.82", perStep)
	}
}

func TestChooseSelectsBestC(t *testing.T) {
	params, err := Choose(500, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if params.M < 2 || params.M > 20 {
		t.Fatalf("implausible m* = %d", params.M)
	}
	if params.NPerStep != 500/params.M {
		t.Fatalf("NPerStep = %d", params.NPerStep)
	}
	if math.Abs(params.PPerStep-math.Pow(0.001, 1/float64(params.M))) > 1e-12 {
		t.Fatalf("PPerStep = %g", params.PPerStep)
	}
	if params.MSRE <= 0 {
		t.Fatalf("MSRE = %g", params.MSRE)
	}
	// Paper benchmark (App. D) uses m=5, p^{1/m}=0.25 for p ≈ 0.001 and
	// N=500; Theorem 1 should land in that neighbourhood.
	if params.M < 3 || params.M > 8 {
		t.Fatalf("m* = %d far from the paper's m=5", params.M)
	}
}

func TestChooseValidation(t *testing.T) {
	if _, err := Choose(1, 0.01); err == nil {
		t.Fatal("N=1 must error")
	}
	if _, err := Choose(100, 0); err == nil {
		t.Fatal("p=0 must error")
	}
	if _, err := Choose(100, 1); err == nil {
		t.Fatal("p=1 must error")
	}
}

func TestWDecreasingAndChooseN(t *testing.T) {
	p := 0.001
	prev := math.Inf(1)
	for _, n := range []int{50, 100, 200, 400, 800, 1600, 3200} {
		w := W(n, p)
		if w > prev+1e-9 {
			t.Fatalf("w(%d) = %g increased from %g", n, w, prev)
		}
		prev = w
	}
	n1, err := ChooseN(p, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := ChooseN(p, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n2 <= n1 {
		t.Fatalf("tighter target needs more samples: %d vs %d", n2, n1)
	}
	if W(n1, p) > 0.05 || (n1 > 2 && W(n1-1, p) <= 0.05) {
		t.Fatalf("ChooseN(%g, 0.05) = %d not minimal (w=%g, w(n-1)=%g)", p, n1, W(n1, p), W(n1-1, p))
	}
	if _, err := ChooseN(p, -1, 0); err == nil {
		t.Fatal("negative target must error")
	}
	if _, err := ChooseN(1e-9, 1e-9, 64); err == nil {
		t.Fatal("unreachable target must error")
	}
}

func TestSimulatedMSREMatchesAnalytic(t *testing.T) {
	// E4 core claim: the analytic u formula predicts the simulated MSRE of
	// the Beta order-statistic model.
	cases := []struct {
		N int
		p float64
	}{
		{200, 0.01}, {500, 0.001},
	}
	for _, tc := range cases {
		params, err := Choose(tc.N, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		sim := SimulateMSRE(tc.N, params.M, tc.p, 4000, 99)
		if params.MSRE <= 0 {
			t.Fatalf("analytic MSRE %g", params.MSRE)
		}
		rel := math.Abs(sim-params.MSRE) / params.MSRE
		if rel > 0.35 {
			t.Errorf("N=%d p=%g: simulated MSRE %g vs analytic %g (rel %g)",
				tc.N, tc.p, sim, params.MSRE, rel)
		}
	}
}

func TestConfigure(t *testing.T) {
	cfg, err := Configure(0.001, 100, Options{TotalSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.P != 0.001 || cfg.L != 100 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.N != 500/cfg.M {
		t.Fatalf("N = %d with M = %d", cfg.N, cfg.M)
	}
	// ForceM override (the paper benchmark forces m=5).
	cfg, err = Configure(0.001, 100, Options{TotalSamples: 500, ForceM: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.M != 5 || cfg.N != 100 {
		t.Fatalf("forced cfg = %+v", cfg)
	}
	// Budget from MSRE target.
	cfg, err = Configure(0.01, 10, Options{MSRETarget: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N*cfg.M < 50 {
		t.Fatalf("derived budget too small: %+v", cfg)
	}
	if _, err := Configure(0.01, 0, Options{}); err == nil {
		t.Fatal("l=0 must error")
	}
}

func TestSampleEndToEnd(t *testing.T) {
	// Drive the full stack through Configure and the looper and check
	// against the analytic quantile of a sum of normals.
	cat := storage.NewCatalog()
	means := storage.NewTable("means", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "m", Kind: types.KindFloat},
	))
	mu := 0.0
	for i := 0; i < 10; i++ {
		m := float64(i + 1)
		mu += m
		means.MustAppend(types.Row{types.NewInt(int64(i)), types.NewFloat(m)})
	}
	cat.Put(means)
	normal, _ := vg.NewRegistry().Lookup("Normal")
	ws := exec.NewWorkspace(cat, prng.NewStream(404), 4096)
	scan, err := exec.NewScan(cat, "means", "means")
	if err != nil {
		t.Fatal(err)
	}
	seed, err := exec.NewSeed(scan, normal, []expr.Expr{expr.C("m"), expr.F(1)}, []string{"val"})
	if err != nil {
		t.Fatal(err)
	}
	plan := &exec.Instantiate{Child: seed}
	cfg, err := Configure(0.01, 50, Options{TotalSamples: 400})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gibbs.Run(ws, plan, gibbs.Query{Agg: exec.AggSpec{Kind: exec.AggSum, Expr: expr.C("val")}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.NormalQuantile(0.99, mu, math.Sqrt(10))
	if math.Abs(res.Quantile-want) > 2.5 {
		t.Fatalf("quantile = %g, want ≈ %g", res.Quantile, want)
	}
	if len(res.TailSamples) != 50 {
		t.Fatalf("samples = %d", len(res.TailSamples))
	}
}
