package repro_test

// Benchmarks regenerating the paper's evaluation artifacts (one or more
// per table/figure; see DESIGN.md §2 and EXPERIMENTS.md). The benchmarks
// run the experiments at a reduced scale so `go test -bench=.` completes
// in minutes; use cmd/mcdbr-bench for paper-parameter runs and the full
// printed tables.
//
// Experiment map:
//
//	E1 (App. D timing)   BenchmarkE1_TailSampling, BenchmarkE1_NaiveMCDB
//	E2 (Figure 5)        BenchmarkE2_Fig5Accuracy
//	E3 (§1 motivation)   BenchmarkE3_NaiveTailHitRate
//	E4 (App. C params)   BenchmarkE4_ParamSelection
//	E5 (App. B regime)   BenchmarkE5_HeavyTailRejections
//	Ablations            BenchmarkAblation_*
import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tail"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/mcdbr"
)

const benchScaleDiv = 1000 // 100 orders, 1000 lineitems

// BenchmarkE1_TailSampling measures one full MCDB-R tail-sampling run
// (m=5, N=500, l=100, p≈0.001) on the Appendix D timing workload.
func BenchmarkE1_TailSampling(b *testing.B) {
	b.ReportAllocs()
	p := math.Pow(0.25, 5)
	for i := 0; i < b.N; i++ {
		e, err := experiments.TPCHTimingEngine(benchScaleDiv, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		tr, err := experiments.TPCHQuery(e).TailSample(p, 100,
			mcdbr.TailSampleOptions{TotalSamples: 500, ForceM: 5})
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Samples) != 100 {
			b.Fatalf("samples = %d", len(tr.Samples))
		}
	}
}

// BenchmarkE1_NaiveMCDB measures 1000 naive Monte Carlo repetitions of the
// same query; obtaining 100 tail samples at p≈0.001 needs ~102400
// repetitions, so the per-op cost must be multiplied by ~102 for the
// apples-to-apples Appendix D comparison.
func BenchmarkE1_NaiveMCDB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := experiments.TPCHTimingEngine(benchScaleDiv, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		d, err := experiments.TPCHQuery(e).MonteCarlo(1000)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Samples) != 1000 {
			b.Fatalf("samples = %d", len(d.Samples))
		}
	}
}

// BenchmarkE2_Fig5Accuracy measures one Figure 5 accuracy run (skewed-join
// workload, m=5, N=500, l=100) including the analytic-truth comparison.
func BenchmarkE2_Fig5Accuracy(b *testing.B) {
	b.ReportAllocs()
	p := math.Pow(0.25, 5)
	for i := 0; i < b.N; i++ {
		e, err := experiments.TPCHEngine(benchScaleDiv, 42)
		if err != nil {
			b.Fatal(err)
		}
		mu, sigma := experiments.TPCHAnalyticMoments(e)
		trueQ := stats.NormalQuantile(1-p, mu, sigma)
		tr, err := experiments.TPCHQuery(e).TailSample(p, 100,
			mcdbr.TailSampleOptions{TotalSamples: 500, ForceM: 5})
		if err != nil {
			b.Fatal(err)
		}
		if relErr := math.Abs(tr.Min()-trueQ) / trueQ; relErr > 0.25 {
			b.Fatalf("estimate %g vs analytic %g", tr.Min(), trueQ)
		}
	}
}

// BenchmarkE3_NaiveTailHitRate measures the naive engine's repetition
// throughput and verifies the §1 hit-rate arithmetic: tail hits arrive at
// rate p.
func BenchmarkE3_NaiveTailHitRate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := mcdbr.New(mcdbr.WithSeed(uint64(i)), mcdbr.WithWindow(6000))
		e.RegisterTable(workload.LossMeans(20, 2, 8, 3))
		if err := e.DefineRandomTable(mcdbr.RandomTable{
			Name: "losses", ParamTable: "means", VG: "Normal",
			VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
			Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
		}); err != nil {
			b.Fatal(err)
		}
		d, err := e.Query().From("losses", "").SelectSum(expr.C("val")).MonteCarlo(5000)
		if err != nil {
			b.Fatal(err)
		}
		_ = d.Quantile(0.999)
	}
}

// BenchmarkE4_ParamSelection measures Appendix C parameter selection:
// Theorem 1 m*, budget choice, and a simulated-MSRE validation pass.
func BenchmarkE4_ParamSelection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		params, err := tail.Choose(500, 0.001)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tail.ChooseN(0.001, 0.05, 0); err != nil {
			b.Fatal(err)
		}
		sim := tail.SimulateMSRE(500, params.M, 0.001, 500, uint64(i))
		if sim <= 0 {
			b.Fatal("degenerate simulated MSRE")
		}
	}
}

// BenchmarkE5_HeavyTailRejections measures the full Appendix B regime
// sweep (Normal vs Lognormal vs Pareto rejection cost).
func BenchmarkE5_HeavyTailRejections(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE5(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// parallelBenchEngine builds the replicate-sharding benchmark workload: a
// 200-customer loss SUM evaluated under 2000 Monte Carlo replicates.
func parallelBenchEngine(b *testing.B, seed uint64, workers int) *mcdbr.Engine {
	b.Helper()
	e := mcdbr.New(mcdbr.WithSeed(seed), mcdbr.WithParallelism(workers))
	e.RegisterTable(workload.LossMeans(200, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	return e
}

func benchParallelMonteCarlo(b *testing.B, workers int) {
	const reps = 2000
	for i := 0; i < b.N; i++ {
		d, err := parallelBenchEngine(b, uint64(i), workers).
			Query().From("losses", "").SelectSum(expr.C("val")).MonteCarlo(reps)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Samples) != reps {
			b.Fatalf("samples = %d", len(d.Samples))
		}
	}
}

// BenchmarkParallel_MonteCarloSequential is the workers=1 baseline for the
// replicate-sharded executor.
func BenchmarkParallel_MonteCarloSequential(b *testing.B) {
	b.ReportAllocs()
	benchParallelMonteCarlo(b, 1)
}

// BenchmarkParallel_MonteCarloWorkers runs the same 2000-replicate query
// replicate-sharded across NumCPU workers; output is bit-identical to the
// sequential baseline.
func BenchmarkParallel_MonteCarloWorkers(b *testing.B) {
	b.ReportAllocs()
	benchParallelMonteCarlo(b, runtime.NumCPU())
}

// BenchmarkParallel_Speedup times sequential and replicate-sharded
// execution of the same 2000-replicate query back to back and reports
// their ratio as the "speedup" metric (×; ~NumCPU on an otherwise idle
// multi-core machine, 1.0 on a single-core one). It also re-checks
// bit-identity of the two sample vectors on every iteration.
func BenchmarkParallel_Speedup(b *testing.B) {
	b.ReportAllocs()
	const reps = 2000
	workers := runtime.NumCPU()
	var seqDur, parDur time.Duration
	for i := 0; i < b.N; i++ {
		q := func(w int) []float64 {
			d, err := parallelBenchEngine(b, uint64(i), w).
				Query().From("losses", "").SelectSum(expr.C("val")).MonteCarlo(reps)
			if err != nil {
				b.Fatal(err)
			}
			return d.Samples
		}
		start := time.Now()
		seq := q(1)
		seqDur += time.Since(start)
		start = time.Now()
		par := q(workers)
		parDur += time.Since(start)
		for j := range seq {
			if seq[j] != par[j] {
				b.Fatalf("replicate %d: sequential %v vs parallel %v", j, seq[j], par[j])
			}
		}
	}
	if parDur > 0 {
		b.ReportMetric(seqDur.Seconds()/parDur.Seconds(), "speedup")
		b.ReportMetric(float64(workers), "workers")
	}
}

// servingBenchEngine builds the serving-path benchmark workload: the §2
// quickstart loss model with a small stream window so per-run execution
// cost does not drown out the parse+plan cost being compared.
func servingBenchEngine(b *testing.B) *mcdbr.Engine {
	b.Helper()
	e := mcdbr.New(mcdbr.WithSeed(42), mcdbr.WithWindow(8), mcdbr.WithParallelism(1))
	e.RegisterTable(workload.LossMeans(10, 2, 8, 7))
	if _, err := e.Exec(`
CREATE TABLE Losses (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.* FROM myVal`); err != nil {
		b.Fatal(err)
	}
	return e
}

const servingBenchSQL = `SELECT SUM(val) AS totalLoss FROM Losses WHERE CID < 10008
WITH RESULTDISTRIBUTION MONTECARLO(8)`

// BenchmarkPrepared_Reexec measures re-running a prepared quickstart query:
// the plan is built once, each iteration only executes it.
func BenchmarkPrepared_Reexec(b *testing.B) {
	b.ReportAllocs()
	e := servingBenchEngine(b)
	pq, err := e.Prepare(servingBenchSQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pq.Run(mcdbr.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dist.Samples) != 8 {
			b.Fatalf("samples = %d", len(res.Dist.Samples))
		}
	}
}

// BenchmarkPrepared_ParsePlanPerCall is the Exec baseline: the same query
// pays sqlish parsing and internal/plan rewriting/lowering on every call.
// Prepared re-execution must beat this (ISSUE 3 acceptance).
func BenchmarkPrepared_ParsePlanPerCall(b *testing.B) {
	b.ReportAllocs()
	e := servingBenchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Exec(servingBenchSQL)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dist.Samples) != 8 {
			b.Fatalf("samples = %d", len(res.Dist.Samples))
		}
	}
}

// BenchmarkPrepared_PrepareOnly measures Prepare itself with a warm plan
// cache (the server's steady-state cost of routing a repeated statement).
func BenchmarkPrepared_PrepareOnly(b *testing.B) {
	b.ReportAllocs()
	e := servingBenchEngine(b)
	if _, err := e.Prepare(servingBenchSQL); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pq, err := e.Prepare(servingBenchSQL)
		if err != nil {
			b.Fatal(err)
		}
		if !pq.CacheHit() {
			b.Fatal("cache miss on repeated Prepare")
		}
	}
}

// BenchmarkServe_ConcurrentQueries measures end-to-end HTTP throughput of
// the query service under parallel clients, reporting queries/sec.
func BenchmarkServe_ConcurrentQueries(b *testing.B) {
	b.ReportAllocs()
	e := servingBenchEngine(b)
	srv := server.New(e, server.Options{MaxConcurrent: runtime.NumCPU()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, err := json.Marshal(server.QueryRequest{SQL: servingBenchSQL})
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				// FailNow must not be called off the benchmark goroutine.
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
			resp.Body.Close()
		}
	})
	b.StopTimer()
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(b.N)/d, "queries/s")
	}
}

// hotpathEngine builds the quickstart workload at the hot-path benchmark
// scale: 100 customers, sequential execution so allocation counts are
// stable across runs.
func hotpathEngine(b *testing.B) *mcdbr.Engine {
	b.Helper()
	e := mcdbr.New(mcdbr.WithSeed(42), mcdbr.WithParallelism(1))
	e.RegisterTable(workload.LossMeans(100, 2, 8, 7))
	if _, err := e.Exec(`
CREATE TABLE Losses (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.* FROM myVal`); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkHotpath_QuickstartAggregate measures the §2 quickstart SUM
// aggregate on the prepared-query hot path (plan built once, executed per
// iteration), reporting allocs/op for the slab-allocation trajectory.
func BenchmarkHotpath_QuickstartAggregate(b *testing.B) {
	e := hotpathEngine(b)
	pq, err := e.Prepare(`SELECT SUM(val) AS totalLoss FROM Losses WHERE CID < 10090
WITH RESULTDISTRIBUTION MONTECARLO(256)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pq.Run(mcdbr.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dist.Samples) != 256 {
			b.Fatalf("samples = %d", len(res.Dist.Samples))
		}
	}
}

// BenchmarkHotpath_Fig2SelfJoin measures the paper's Fig. 2 salary
// inversion self-join (two scans of one random table, cross-seed final
// predicate in the looper) on the prepared hot path.
func BenchmarkHotpath_Fig2SelfJoin(b *testing.B) {
	e := mcdbr.New(mcdbr.WithSeed(77), mcdbr.WithParallelism(1))
	sup, empmeans := workload.SalaryDB()
	e.RegisterTable(sup)
	e.RegisterTable(empmeans)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "emp", ParamTable: "empmeans", VG: "Normal",
		VGParams: []expr.Expr{expr.C("msal"), expr.F(4e6)},
		Columns:  []mcdbr.RandomCol{{Name: "eid", FromParam: "eid"}, {Name: "sal", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	pq, err := e.Prepare(`SELECT SUM(emp2.sal - emp1.sal) AS inv
FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid AND emp2.sal > emp1.sal
WITH RESULTDISTRIBUTION MONTECARLO(128)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pq.Run(mcdbr.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dist.Samples) != 128 {
			b.Fatalf("samples = %d", len(res.Dist.Samples))
		}
	}
}

// BenchmarkHotpath_TailSampling measures one small Gibbs tail-sampling run
// (the MCDB-R core loop: bootstrapping, rejection sampling, on-demand draws)
// with allocation reporting.
func BenchmarkHotpath_TailSampling(b *testing.B) {
	e := mcdbr.New(mcdbr.WithSeed(5), mcdbr.WithWindow(2048), mcdbr.WithParallelism(1))
	e.RegisterTable(workload.LossMeans(50, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	pq, err := e.Prepare(`SELECT SUM(val) AS totalLoss FROM losses
WITH RESULTDISTRIBUTION MONTECARLO(50) DOMAIN totalLoss >= QUANTILE(0.99)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pq.Run(mcdbr.RunOptions{Tail: mcdbr.TailSampleOptions{TotalSamples: 200, ForceM: 3}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tail.Samples) != 50 {
			b.Fatalf("samples = %d", len(res.Tail.Samples))
		}
	}
}

// detPrefixEngine builds a workload whose query has a non-trivial
// deterministic prefix: accounts joined to regions is a purely
// deterministic two-table join below the random loss table. With the
// deterministic-prefix materialization cache, prepared re-execution skips
// that join entirely.
func detPrefixEngine(b *testing.B) *mcdbr.Engine {
	b.Helper()
	e := mcdbr.New(mcdbr.WithSeed(11), mcdbr.WithParallelism(1))
	e.RegisterTable(workload.LossMeans(400, 2, 8, 9))
	regions := storage.NewTable("regions", types.NewSchema(
		types.Column{Name: "rid", Kind: types.KindInt},
		types.Column{Name: "weight", Kind: types.KindFloat},
	))
	for r := 0; r < 8; r++ {
		regions.MustAppend(types.Row{types.NewInt(int64(r)), types.NewFloat(1 + float64(r)/8)})
	}
	e.RegisterTable(regions)
	accounts := storage.NewTable("accounts", types.NewSchema(
		types.Column{Name: "aid", Kind: types.KindInt},
		types.Column{Name: "rid", Kind: types.KindInt},
	))
	for i := 0; i < 400; i++ {
		accounts.MustAppend(types.Row{types.NewInt(int64(10000 + i)), types.NewInt(int64(i % 8))})
	}
	e.RegisterTable(accounts)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	return e
}

const detPrefixSQL = `SELECT SUM(losses.val * regions.weight) AS wloss
FROM losses, accounts, regions
WHERE losses.cid = accounts.aid AND accounts.rid = regions.rid
WITH RESULTDISTRIBUTION MONTECARLO(64)`

// BenchmarkHotpath_PreparedDetPrefix measures prepared re-execution of a
// query with a non-trivial deterministic prefix (accounts ⋈ regions). The
// engine-level materialization cache makes re-executions skip the
// deterministic join; this benchmark is the ISSUE 4 acceptance measurement.
func BenchmarkHotpath_PreparedDetPrefix(b *testing.B) {
	e := detPrefixEngine(b)
	pq, err := e.Prepare(detPrefixSQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pq.Run(mcdbr.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dist.Samples) != 64 {
			b.Fatalf("samples = %d", len(res.Dist.Samples))
		}
	}
}

// benchTailOnce runs a small tail sampling with the given knobs; shared by
// the ablation benchmarks.
func benchTailOnce(b *testing.B, seed uint64, window int, opts mcdbr.TailSampleOptions) {
	b.Helper()
	e := mcdbr.New(mcdbr.WithSeed(seed), mcdbr.WithWindow(window))
	e.RegisterTable(workload.LossMeans(50, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Query().From("losses", "").SelectSum(expr.C("val")).
		TailSample(0.001, 100, opts); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblation_K1 vs K3 quantifies extra Gibbs updating steps (the
// paper finds k=1 suffices).
func BenchmarkAblation_K1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTailOnce(b, uint64(i), 2048, mcdbr.TailSampleOptions{TotalSamples: 500, ForceM: 5, K: 1})
	}
}

// BenchmarkAblation_K3 is the k=3 counterpart.
func BenchmarkAblation_K3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTailOnce(b, uint64(i), 2048, mcdbr.TailSampleOptions{TotalSamples: 500, ForceM: 5, K: 3})
	}
}

// BenchmarkAblation_M2 vs the Theorem 1 m*: fewer bootstrapping steps mean
// each step must estimate a much more extreme per-step quantile.
func BenchmarkAblation_M2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTailOnce(b, uint64(i), 2048, mcdbr.TailSampleOptions{TotalSamples: 500, ForceM: 2})
	}
}

// BenchmarkAblation_MStar uses the Appendix C optimum.
func BenchmarkAblation_MStar(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTailOnce(b, uint64(i), 2048, mcdbr.TailSampleOptions{TotalSamples: 500})
	}
}

// groupedBenchEngine builds the ISSUE 5 grouped-aggregation workload:
// losses(cid, val) ~ Normal(m, 1) over nCustomers customers joined to a
// grp table assigning customers round-robin to nGroups groups.
func groupedBenchEngine(b *testing.B, seed uint64, nCustomers, nGroups int) *mcdbr.Engine {
	b.Helper()
	e := mcdbr.New(mcdbr.WithSeed(seed), mcdbr.WithParallelism(1))
	e.RegisterTable(workload.LossMeans(nCustomers, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	grp := storage.NewTable("grp", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindInt},
	))
	m, _ := e.Table("means")
	for i, r := range m.Rows() {
		grp.MustAppend(types.Row{r[0], types.NewInt(int64(i % nGroups))})
	}
	e.RegisterTable(grp)
	return e
}

const (
	groupedBenchGroups    = 8
	groupedBenchCustomers = 64
	groupedBenchReps      = 500
)

// groupedBenchPerGroupLoop reconstructs the pre-ISSUE-5 architecture for
// comparison: one full query per group — the grouped query re-planned
// and re-executed with a per-group selection predicate, exactly what the
// deleted GroupedMonteCarlo outer loop did.
func groupedBenchPerGroupLoop(b *testing.B, e *mcdbr.Engine) map[int][]float64 {
	out := make(map[int][]float64, groupedBenchGroups)
	for g := 0; g < groupedBenchGroups; g++ {
		d, err := e.Query().
			From("losses", "l").From("grp", "grp").
			Where(expr.B(expr.OpEq, expr.C("l.cid"), expr.C("grp.cid"))).
			Where(expr.B(expr.OpEq, expr.C("grp.g"), expr.I(int64(g)))).
			SelectSum(expr.C("l.val")).
			MonteCarlo(groupedBenchReps)
		if err != nil {
			b.Fatal(err)
		}
		out[g] = d.Samples
	}
	return out
}

// groupedBenchSinglePass runs the same workload through the ISSUE 5
// grouped Aggregate operator: one plan run, one pass per repetition.
func groupedBenchSinglePass(b *testing.B, e *mcdbr.Engine) *mcdbr.GroupedDistribution {
	gd, err := e.Query().
		From("losses", "l").From("grp", "grp").
		Where(expr.B(expr.OpEq, expr.C("l.cid"), expr.C("grp.cid"))).
		SelectSum(expr.C("l.val")).
		GroupBy(expr.C("grp.g")).
		MonteCarloGrouped(groupedBenchReps)
	if err != nil {
		b.Fatal(err)
	}
	if len(gd.Groups) != groupedBenchGroups {
		b.Fatalf("groups = %d", len(gd.Groups))
	}
	return gd
}

// BenchmarkGrouped_PerGroupLoop is the pre-ISSUE-5 baseline: GROUP BY
// over 8 groups executed as 8 full per-group queries.
func BenchmarkGrouped_PerGroupLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		groupedBenchPerGroupLoop(b, groupedBenchEngine(b, uint64(i), groupedBenchCustomers, groupedBenchGroups))
	}
}

// BenchmarkGrouped_SinglePass is the ISSUE 5 pipeline: the same GROUP BY
// workload in one plan run with per-repetition aggregate vectors.
func BenchmarkGrouped_SinglePass(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		groupedBenchSinglePass(b, groupedBenchEngine(b, uint64(i), groupedBenchCustomers, groupedBenchGroups))
	}
}

// BenchmarkGrouped_Speedup times both architectures back to back,
// reports their ratio as the "speedup" metric, and re-checks per-group
// bit-identity of the sample vectors on every iteration.
func BenchmarkGrouped_Speedup(b *testing.B) {
	b.ReportAllocs()
	var loopDur, passDur time.Duration
	for i := 0; i < b.N; i++ {
		e := groupedBenchEngine(b, uint64(i), groupedBenchCustomers, groupedBenchGroups)
		start := time.Now()
		perGroup := groupedBenchPerGroupLoop(b, e)
		loopDur += time.Since(start)
		start = time.Now()
		gd := groupedBenchSinglePass(b, e)
		passDur += time.Since(start)
		for gi := range gd.Groups {
			g := &gd.Groups[gi]
			want := perGroup[int(g.Key[0].Int())]
			for j := range want {
				if g.Dists[0].Samples[j] != want[j] {
					b.Fatalf("group %s sample %d: single-pass %v vs per-group %v",
						g.KeyString(), j, g.Dists[0].Samples[j], want[j])
				}
			}
		}
	}
	if passDur > 0 {
		b.ReportMetric(loopDur.Seconds()/passDur.Seconds(), "speedup")
		b.ReportMetric(groupedBenchGroups, "groups")
	}
}

// measurePeakBytes runs f once and returns the peak live-heap growth over
// the pre-run baseline, sampled by a background goroutine while f runs.
// The GC growth target is lowered during the measurement so dead garbage
// is reclaimed promptly and HeapAlloc tracks the live set — without this,
// a streaming executor's recycled batches would be indistinguishable from
// a materializing executor's retained relation.
func measurePeakBytes(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stop := make(chan struct{})
	peakc := make(chan uint64, 1)
	go func() {
		var peak uint64
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				peakc <- peak
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	f()
	close(stop)
	peak := <-peakc
	if peak <= base.HeapAlloc {
		return 0
	}
	return float64(peak - base.HeapAlloc)
}

// BenchmarkStreaming_QuickstartAggregate is the streaming-executor
// measurement of the §2 quickstart SUM (same workload as
// BenchmarkHotpath_QuickstartAggregate): wall-clock and allocs on the
// prepared hot path, plus the sampled peak-live-bytes of one run as the
// "peak-B" metric. BENCH_6.json compares these numbers against the
// materializing executor's.
func BenchmarkStreaming_QuickstartAggregate(b *testing.B) {
	e := hotpathEngine(b)
	pq, err := e.Prepare(`SELECT SUM(val) AS totalLoss FROM Losses WHERE CID < 10090
WITH RESULTDISTRIBUTION MONTECARLO(256)`)
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		res, err := pq.Run(mcdbr.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dist.Samples) != 256 {
			b.Fatalf("samples = %d", len(res.Dist.Samples))
		}
	}
	peak := measurePeakBytes(run)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(peak, "peak-B")
}

// BenchmarkStreaming_Fig2SelfJoin is the streaming-executor measurement of
// the Fig. 2 salary-inversion self-join (same workload as
// BenchmarkHotpath_Fig2SelfJoin), with the "peak-B" metric.
func BenchmarkStreaming_Fig2SelfJoin(b *testing.B) {
	e := mcdbr.New(mcdbr.WithSeed(77), mcdbr.WithParallelism(1))
	sup, empmeans := workload.SalaryDB()
	e.RegisterTable(sup)
	e.RegisterTable(empmeans)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "emp", ParamTable: "empmeans", VG: "Normal",
		VGParams: []expr.Expr{expr.C("msal"), expr.F(4e6)},
		Columns:  []mcdbr.RandomCol{{Name: "eid", FromParam: "eid"}, {Name: "sal", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	pq, err := e.Prepare(`SELECT SUM(emp2.sal - emp1.sal) AS inv
FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid AND emp2.sal > emp1.sal
WITH RESULTDISTRIBUTION MONTECARLO(128)`)
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		res, err := pq.Run(mcdbr.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dist.Samples) != 128 {
			b.Fatalf("samples = %d", len(res.Dist.Samples))
		}
	}
	peak := measurePeakBytes(run)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(peak, "peak-B")
}

// streamingLargeScanRows sizes the large-scan workload: the accounts table
// is two thousand times larger than what survives its filter, so run
// footprint is dominated by how the executor carries the scan.
const streamingLargeScanRows = 200000

// streamingLargeScanEngine builds the large-scan workload: a 200k-row
// deterministic accounts table filtered down to 2k rows and joined under a
// 100-customer random loss table. The deterministic-prefix cache is
// disabled so every run pays the scan — a materializing executor holds
// every scanned tuple at once, a streaming one only the current batch plus
// the filter survivors.
func streamingLargeScanEngine(b *testing.B) *mcdbr.Engine {
	b.Helper()
	e := mcdbr.New(mcdbr.WithSeed(23), mcdbr.WithParallelism(1), mcdbr.WithPrefixCacheSize(-1))
	e.RegisterTable(workload.LossMeans(100, 2, 8, 7))
	accounts := storage.NewTable("accounts", types.NewSchema(
		types.Column{Name: "aid", Kind: types.KindInt},
		types.Column{Name: "flag", Kind: types.KindInt},
		types.Column{Name: "w", Kind: types.KindFloat},
	))
	for i := 0; i < streamingLargeScanRows; i++ {
		flag := int64(0)
		if i%100 == 0 {
			flag = 1
		}
		accounts.MustAppend(types.Row{
			types.NewInt(int64(10000 + i%100)),
			types.NewInt(flag),
			types.NewFloat(1 + float64(i%7)/8),
		})
	}
	e.RegisterTable(accounts)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	return e
}

const streamingLargeScanSQL = `SELECT SUM(losses.val * accounts.w) AS wloss
FROM losses, accounts
WHERE losses.cid = accounts.aid AND accounts.flag = 1
WITH RESULTDISTRIBUTION MONTECARLO(16)`

// adaptiveBenchEngine builds the adaptive-stopping benchmark workload: a
// low-variance 200-customer loss SUM (relative sd ≈ 1.4%), where a tight
// confidence interval needs only a few dozen replicates but a fixed
// budget would burn thousands.
func adaptiveBenchEngine(b *testing.B, seed uint64) *mcdbr.Engine {
	b.Helper()
	e := mcdbr.New(mcdbr.WithSeed(seed), mcdbr.WithParallelism(1))
	e.RegisterTable(workload.LossMeans(200, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	return e
}

const (
	adaptiveBenchTarget = 0.005 // relative CI half-width the run must reach
	adaptiveBenchMaxN   = 8192  // fixed budget / adaptive cap
)

// BenchmarkAdaptive_FixedBudget is the baseline: the low-variance SUM at
// the full fixed replicate budget, the cost a caller pays without a
// stopping rule.
func BenchmarkAdaptive_FixedBudget(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := adaptiveBenchEngine(b, uint64(i)).
			Query().From("losses", "").SelectSum(expr.C("val")).
			MonteCarlo(adaptiveBenchMaxN)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Samples) != adaptiveBenchMaxN {
			b.Fatalf("samples = %d", len(d.Samples))
		}
	}
}

// BenchmarkAdaptive_UntilError runs the same query with UNTIL ERROR early
// stopping at the same cap, reporting how many replicates the confidence
// interval actually needed as "samples_used".
func BenchmarkAdaptive_UntilError(b *testing.B) {
	b.ReportAllocs()
	var used int
	for i := 0; i < b.N; i++ {
		_, rep, err := adaptiveBenchEngine(b, uint64(i)).
			Query().From("losses", "").SelectSum(expr.C("val")).
			Until(adaptiveBenchTarget, 0.95, adaptiveBenchMaxN).
			MonteCarloAdaptive()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Converged {
			b.Fatalf("did not converge: %+v", rep)
		}
		used = rep.SamplesUsed
	}
	b.ReportMetric(float64(used), "samples_used")
}

// BenchmarkAdaptive_Speedup times the fixed budget and the adaptive run
// back to back at equal target accuracy (the fixed budget also reaches the
// target) and reports their wall-clock ratio as "speedup" plus the
// adaptive stopping point as "samples_used". It re-checks on every
// iteration that the adaptive replicates are a bit-identical prefix of the
// fixed run's — the ISSUE 7 determinism guarantee.
func BenchmarkAdaptive_Speedup(b *testing.B) {
	b.ReportAllocs()
	var fixedDur, adaptDur time.Duration
	var used int
	for i := 0; i < b.N; i++ {
		start := time.Now()
		d, err := adaptiveBenchEngine(b, uint64(i)).
			Query().From("losses", "").SelectSum(expr.C("val")).
			MonteCarlo(adaptiveBenchMaxN)
		if err != nil {
			b.Fatal(err)
		}
		fixedDur += time.Since(start)
		start = time.Now()
		gd, rep, err := adaptiveBenchEngine(b, uint64(i)).
			Query().From("losses", "").SelectSum(expr.C("val")).
			Until(adaptiveBenchTarget, 0.95, adaptiveBenchMaxN).
			MonteCarloAdaptive()
		if err != nil {
			b.Fatal(err)
		}
		adaptDur += time.Since(start)
		if !rep.Converged {
			b.Fatalf("did not converge: %+v", rep)
		}
		used = rep.SamplesUsed
		adaptive := gd.Groups[0].Dists[0].Samples
		for j, s := range adaptive {
			if s != d.Samples[j] {
				b.Fatalf("replicate %d: adaptive %v vs fixed %v", j, s, d.Samples[j])
			}
		}
	}
	if adaptDur > 0 {
		b.ReportMetric(fixedDur.Seconds()/adaptDur.Seconds(), "speedup")
		b.ReportMetric(float64(used), "samples_used")
	}
}

// BenchmarkStreaming_LargeScan is the bounded-memory acceptance benchmark:
// the 200k-row filtered scan under a Monte Carlo aggregate, prefix cache
// off. The "peak-B" metric must drop by at least half when the executor
// streams (ISSUE 6 acceptance; see BENCH_6.json).
func BenchmarkStreaming_LargeScan(b *testing.B) {
	e := streamingLargeScanEngine(b)
	pq, err := e.Prepare(streamingLargeScanSQL)
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		res, err := pq.Run(mcdbr.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dist.Samples) != 16 {
			b.Fatalf("samples = %d", len(res.Dist.Samples))
		}
	}
	peak := measurePeakBytes(run)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(peak, "peak-B")
}

// kernelGroupedEngine builds the vectorized-kernel workload: the grouped
// loss SUM with sequential execution through the window-major EvalWindow
// pass.
func kernelGroupedEngine(b *testing.B, seed uint64) *mcdbr.Engine {
	b.Helper()
	e := mcdbr.New(mcdbr.WithSeed(seed), mcdbr.WithParallelism(1), mcdbr.WithWindow(4096))
	e.RegisterTable(workload.LossMeans(groupedBenchCustomers, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	grp := storage.NewTable("grp", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindInt},
	))
	m, _ := e.Table("means")
	for i, r := range m.Rows() {
		grp.MustAppend(types.Row{r[0], types.NewInt(int64(i % groupedBenchGroups))})
	}
	e.RegisterTable(grp)
	return e
}

// kernelBenchReps sizes the grouped Monte Carlo kernel benchmarks so the
// per-version inner loop dominates the one-time plan run.
const kernelBenchReps = 2048

// kernelGroupedRun executes the grouped kernel workload: a random-
// attribute filter (evaluated per version as the looper final predicate)
// under a grouped SUM.
func kernelGroupedRun(b *testing.B, e *mcdbr.Engine) *mcdbr.GroupedDistribution {
	b.Helper()
	gd, err := e.Query().
		From("losses", "l").From("grp", "grp").
		Where(expr.B(expr.OpEq, expr.C("l.cid"), expr.C("grp.cid"))).
		Where(expr.B(expr.OpGt, expr.C("l.val"), expr.F(0.5))).
		SelectSum(expr.C("l.val")).
		GroupBy(expr.C("grp.g")).
		MonteCarloGrouped(kernelBenchReps)
	if err != nil {
		b.Fatal(err)
	}
	if len(gd.Groups) != groupedBenchGroups {
		b.Fatalf("groups = %d", len(gd.Groups))
	}
	return gd
}

// BenchmarkKernel_GroupedMC_Vec measures the grouped kernel workload end
// to end, plan run included.
func BenchmarkKernel_GroupedMC_Vec(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kernelGroupedRun(b, kernelGroupedEngine(b, uint64(i)))
	}
}

// kernelQuickstartEngine is the §2 quickstart workload: a
// deterministic-column filter (the Select det-batch kernel) under an
// ungrouped SUM.
func kernelQuickstartEngine(b *testing.B) *mcdbr.Engine {
	b.Helper()
	e := mcdbr.New(mcdbr.WithSeed(42), mcdbr.WithParallelism(1), mcdbr.WithWindow(4096))
	e.RegisterTable(workload.LossMeans(100, 2, 8, 7))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkKernel_Quickstart_Vec measures the quickstart SUM.
func BenchmarkKernel_Quickstart_Vec(b *testing.B) {
	b.ReportAllocs()
	e := kernelQuickstartEngine(b)
	pq, err := e.Prepare(`SELECT SUM(val) AS totalLoss FROM losses WHERE cid < 10090
WITH RESULTDISTRIBUTION MONTECARLO(1024)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pq.Run(mcdbr.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dist.Samples) != 1024 {
			b.Fatalf("samples = %d", len(res.Dist.Samples))
		}
	}
}

// BenchmarkKernel_Fig2SelfJoin_Vec measures the Fig. 2 salary inversion
// self-join (cross-seed final predicate).
func BenchmarkKernel_Fig2SelfJoin_Vec(b *testing.B) {
	b.ReportAllocs()
	e := mcdbr.New(mcdbr.WithSeed(77), mcdbr.WithParallelism(1), mcdbr.WithWindow(4096))
	sup, empmeans := workload.SalaryDB()
	e.RegisterTable(sup)
	e.RegisterTable(empmeans)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "emp", ParamTable: "empmeans", VG: "Normal",
		VGParams: []expr.Expr{expr.C("msal"), expr.F(4e6)},
		Columns:  []mcdbr.RandomCol{{Name: "eid", FromParam: "eid"}, {Name: "sal", VGOut: 0}},
	}); err != nil {
		b.Fatal(err)
	}
	pq, err := e.Prepare(`SELECT SUM(emp2.sal - emp1.sal) AS inv
FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid AND emp2.sal > emp1.sal
WITH RESULTDISTRIBUTION MONTECARLO(512)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pq.Run(mcdbr.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dist.Samples) != 512 {
			b.Fatalf("samples = %d", len(res.Dist.Samples))
		}
	}
}
