package repro_test

// Bit-identity goldens for the streaming executor refactor (ISSUE 6).
//
// The non-negotiable invariant of the batch-iterator pipeline is that
// batch boundaries are semantically invisible: every query produces
// samples bit-identical to the materializing executor, for every worker
// count, batch size, and prefix-cache setting. This suite pins absolute
// sample values captured from the materializing executor into
// testdata/golden6.json and replays representative query shapes
// (quickstart aggregate, Fig. 2 self-join, grouped aggregation with
// HAVING, tail sampling, deterministic-prefix join, tail sampling over the
// self-join's shared seeds, tail sampling over the TPC-H-like join's
// residual forms, plain Monte Carlo over ragged tiles of replicates)
// across the full configuration grid.
//
// Regenerate the golden file with MCDBR_UPDATE_GOLDEN=1 go test -run
// TestBitIdentityGolden — only ever from a known-good executor.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/mcdbr"
)

const goldenPath = "testdata/golden6.json"

// goldenCfg is one point of the bit-identity grid.
type goldenCfg struct {
	workers   int
	prefix    bool
	batchSize int // 0 = engine default
}

func (c goldenCfg) String() string {
	return fmt.Sprintf("workers=%d/prefix=%v/batch=%d", c.workers, c.prefix, c.batchSize)
}

func (c goldenCfg) opts(base ...mcdbr.Option) []mcdbr.Option {
	opts := append([]mcdbr.Option{}, base...)
	opts = append(opts, mcdbr.WithParallelism(c.workers))
	if !c.prefix {
		opts = append(opts, mcdbr.WithPrefixCacheSize(-1))
	}
	opts = append(opts, goldenBatchOpts(c.batchSize)...)
	return opts
}

// goldenBatchSizes lists the batch sizes the grid covers (0 = engine
// default of 1024) and goldenBatchOpts maps one to engine options. The
// tiny sizes force many batch boundaries through every operator; the
// goldens were captured from the materializing executor, so passing at
// every size proves batch boundaries are semantically invisible.
var goldenBatchSizes = []int{0, 1, 7}

func goldenBatchOpts(n int) []mcdbr.Option {
	if n <= 0 {
		return nil
	}
	return []mcdbr.Option{mcdbr.WithBatchSize(n)}
}

// goldenQuickstart runs the §2 quickstart SUM.
func goldenQuickstart(t testing.TB, cfg goldenCfg) []float64 {
	t.Helper()
	e := mcdbr.New(cfg.opts(mcdbr.WithSeed(42))...)
	e.RegisterTable(workload.LossMeans(100, 2, 8, 7))
	if _, err := e.Exec(`
CREATE TABLE Losses (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.* FROM myVal`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(`SELECT SUM(val) AS totalLoss FROM Losses WHERE CID < 10090
WITH RESULTDISTRIBUTION MONTECARLO(64)`)
	if err != nil {
		t.Fatal(err)
	}
	return res.Dist.Samples
}

// goldenSalaryEngine registers the Fig. 2 salary tables, with emp's
// salaries drawn as Normal(msal, variance).
func goldenSalaryEngine(t testing.TB, variance float64, opts ...mcdbr.Option) *mcdbr.Engine {
	t.Helper()
	e := mcdbr.New(opts...)
	sup, empmeans := workload.SalaryDB()
	e.RegisterTable(sup)
	e.RegisterTable(empmeans)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "emp", ParamTable: "empmeans", VG: "Normal",
		VGParams: []expr.Expr{expr.C("msal"), expr.F(variance)},
		Columns:  []mcdbr.RandomCol{{Name: "eid", FromParam: "eid"}, {Name: "sal", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// goldenFig2 runs the salary-inversion self-join (cross-seed final
// predicate through the Gibbs looper's plain Monte Carlo path).
func goldenFig2(t testing.TB, cfg goldenCfg) []float64 {
	t.Helper()
	e := goldenSalaryEngine(t, 4e6, cfg.opts(mcdbr.WithSeed(77))...)
	res, err := e.Exec(`SELECT SUM(emp2.sal - emp1.sal) AS inv
FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid AND emp2.sal > emp1.sal
WITH RESULTDISTRIBUTION MONTECARLO(32)`)
	if err != nil {
		t.Fatal(err)
	}
	return res.Dist.Samples
}

// goldenGroupedEngine is the grouped-aggregation fixture: losses joined to
// a round-robin group assignment.
func goldenGroupedEngine(t testing.TB, cfg goldenCfg) *mcdbr.Engine {
	t.Helper()
	e := mcdbr.New(cfg.opts(mcdbr.WithSeed(9))...)
	e.RegisterTable(workload.LossMeans(24, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	grp := storage.NewTable("grp", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindInt},
	))
	m, _ := e.Table("means")
	for i, r := range m.Rows() {
		grp.MustAppend(types.Row{r[0], types.NewInt(int64(i % 4))})
	}
	e.RegisterTable(grp)
	return e
}

// goldenGrouped runs a grouped multi-aggregate query with HAVING and
// flattens keys, inclusion fractions, and every per-group sample vector
// into one float slice (keys and inclusions participate in bit-identity).
func goldenGrouped(t testing.TB, cfg goldenCfg) []float64 {
	t.Helper()
	e := goldenGroupedEngine(t, cfg)
	gd, err := e.Query().
		From("losses", "l").From("grp", "grp").
		Where(expr.B(expr.OpEq, expr.C("l.cid"), expr.C("grp.cid"))).
		SelectSumAs(expr.C("l.val"), "s").
		SelectAvgAs(expr.C("l.val"), "a").
		GroupBy(expr.C("grp.g")).
		Having(expr.B(expr.OpGt, expr.C("s"), expr.F(10))).
		MonteCarloGrouped(48)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for i := range gd.Groups {
		g := &gd.Groups[i]
		out = append(out, float64(g.Key[0].Int()), g.Inclusion)
		for _, d := range g.Dists {
			out = append(out, d.Samples...)
		}
	}
	return out
}

// goldenTail runs Gibbs tail sampling (bootstrapping, rejection sampling,
// on-demand draws) and appends the quantile estimate to the sample vector.
func goldenTail(t testing.TB, cfg goldenCfg) []float64 {
	t.Helper()
	e := mcdbr.New(cfg.opts(mcdbr.WithSeed(5), mcdbr.WithWindow(512))...)
	e.RegisterTable(workload.LossMeans(30, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := e.Query().From("losses", "").SelectSum(expr.C("val")).
		TailSample(0.01, 30, mcdbr.TailSampleOptions{TotalSamples: 120, ForceM: 3, Parallelism: cfg.workers})
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]float64(nil), tr.Samples...), tr.QuantileEstimate)
}

// goldenTailSharedSeeds runs Gibbs tail sampling over the Fig. 2 self-join,
// where every joined tuple reads two seeds and Jim's seed as a boss feeds
// two tuples, so the order in which the looper visits seeds and their
// tuples shapes the result. The small window sends the rejection sampler
// past the materialized values in the middle of passes. The quantile and
// every iteration's rejection-sampling counters are appended to the
// samples, so a change in the pass shows up even when the samples agree.
func goldenTailSharedSeeds(t testing.TB, cfg goldenCfg) []float64 {
	t.Helper()
	// A salary sd of 30000 makes every boss/peon pair invert now and then,
	// so both tuples sharing Jim's seed contribute.
	e := goldenSalaryEngine(t, 9e8, cfg.opts(mcdbr.WithSeed(23), mcdbr.WithWindow(64))...)
	res, err := e.Exec(`SELECT SUM(emp2.sal - emp1.sal) AS inv
FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid AND emp2.sal > emp1.sal
WITH RESULTDISTRIBUTION MONTECARLO(40)
DOMAIN inv >= QUANTILE(0.95)`)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tail
	out := append(append([]float64(nil), tr.Samples...), tr.QuantileEstimate)
	for _, it := range tr.Diag.Iters {
		out = append(out, float64(it.Candidates), float64(it.Accepts), float64(it.GiveUps))
	}
	return out
}

// goldenTailResidualForms runs Gibbs tail sampling over the App. D
// TPC-H-like join, where about ten lineitem tuples read each order's
// seed, in four shapes: a bare SUM, a scaled-and-shifted SUM, the same
// join as a lower tail, and a COUNT under a random WHERE (presence
// vectors). The window of 16 sends the rejection sampler past the
// materialized values. Each query's samples, quantile and per-step
// rejection-sampling counters are appended, as in goldenTailSharedSeeds.
func goldenTailResidualForms(t testing.TB, cfg goldenCfg) []float64 {
	t.Helper()
	tc := workload.TimingTPCH(10000) // 10 orders, 100 lineitems, 10 orphans
	tc.Seed = 31
	orders, lineitem, err := workload.TPCHLike(tc)
	if err != nil {
		t.Fatal(err)
	}
	e := mcdbr.New(cfg.opts(mcdbr.WithSeed(61), mcdbr.WithWindow(16))...)
	e.RegisterTable(orders)
	e.RegisterTable(lineitem)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "random_ord", ParamTable: "orders", VG: "Normal",
		VGParams: []expr.Expr{expr.C("o_mean"), expr.C("o_var")},
		Columns: []mcdbr.RandomCol{
			{Name: "o_orderkey", FromParam: "o_orderkey"},
			{Name: "o_yr", FromParam: "o_yr"},
			{Name: "val", VGOut: 0},
		},
	}); err != nil {
		t.Fatal(err)
	}
	const join = "FROM random_ord AS r, lineitem AS l WHERE r.o_orderkey = l.l_orderkey AND (r.o_yr = 1994 OR r.o_yr = 1995)"
	queries := []string{
		"SELECT SUM(r.val) AS s " + join + " WITH RESULTDISTRIBUTION MONTECARLO(20) DOMAIN s >= QUANTILE(0.99)",
		"SELECT SUM(r.val * l.l_qty + 1.0) AS s " + join + " WITH RESULTDISTRIBUTION MONTECARLO(20) DOMAIN s >= QUANTILE(0.99)",
		"SELECT SUM(r.val) AS s " + join + " WITH RESULTDISTRIBUTION MONTECARLO(20) DOMAIN s <= QUANTILE(0.01)",
		"SELECT COUNT(*) AS n " + join + " AND r.val > 1.5 WITH RESULTDISTRIBUTION MONTECARLO(20) DOMAIN n >= QUANTILE(0.95)",
	}
	var out []float64
	for _, q := range queries {
		res, err := e.ExecWithOptions(q, mcdbr.TailSampleOptions{TotalSamples: 90, ForceM: 3, MaxTriesPerUpdate: 200, Parallelism: cfg.workers})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		tr := res.Tail
		out = append(append(out, tr.Samples...), tr.QuantileEstimate)
		for _, it := range tr.Diag.Iters {
			out = append(out, float64(it.Candidates), float64(it.Accepts), float64(it.GiveUps))
		}
	}
	return out
}

// goldenMCTiled runs plain Monte Carlo with 1000 replicates, more than
// one tile of replicates per shard at every worker count and never a
// whole number of tiles, in three shapes: a grouped SUM under a random
// WHERE (presence vectors) with HAVING, the Fig. 2 self-join with its
// cross-seed final predicate, and a COUNT(*) under a random WHERE.
func goldenMCTiled(t testing.TB, cfg goldenCfg) []float64 {
	t.Helper()
	const n = 1000
	e := goldenGroupedEngine(t, cfg)
	gd, err := e.Query().
		From("losses", "l").From("grp", "grp").
		Where(expr.B(expr.OpAnd,
			expr.B(expr.OpEq, expr.C("l.cid"), expr.C("grp.cid")),
			expr.B(expr.OpGt, expr.C("l.val"), expr.F(4.5)))).
		SelectSumAs(expr.C("l.val"), "s").
		GroupBy(expr.C("grp.g")).
		Having(expr.B(expr.OpGt, expr.C("s"), expr.F(25))).
		MonteCarloGrouped(n)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for i := range gd.Groups {
		g := &gd.Groups[i]
		out = append(out, float64(g.Key[0].Int()), g.Inclusion)
		out = append(out, g.Dists[0].Samples...)
	}
	fig2 := goldenSalaryEngine(t, 4e6, cfg.opts(mcdbr.WithSeed(78))...)
	res, err := fig2.Exec(fmt.Sprintf(`SELECT SUM(emp2.sal - emp1.sal) AS inv
FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid AND emp2.sal > emp1.sal
WITH RESULTDISTRIBUTION MONTECARLO(%d)`, n))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, res.Dist.Samples...)
	res, err = e.Exec(fmt.Sprintf(`SELECT COUNT(*) AS c FROM losses WHERE val > 5.5
WITH RESULTDISTRIBUTION MONTECARLO(%d)`, n))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, res.Dist.Samples...)
}

// goldenDetPrefix runs a query with a deterministic join prefix twice on
// one engine, so the second run exercises the prefix cache when enabled;
// both runs' samples participate in bit-identity.
func goldenDetPrefix(t testing.TB, cfg goldenCfg) []float64 {
	t.Helper()
	e := mcdbr.New(cfg.opts(mcdbr.WithSeed(11))...)
	e.RegisterTable(workload.LossMeans(40, 2, 8, 9))
	regions := storage.NewTable("regions", types.NewSchema(
		types.Column{Name: "rid", Kind: types.KindInt},
		types.Column{Name: "weight", Kind: types.KindFloat},
	))
	for r := 0; r < 4; r++ {
		regions.MustAppend(types.Row{types.NewInt(int64(r)), types.NewFloat(1 + float64(r)/8)})
	}
	e.RegisterTable(regions)
	accounts := storage.NewTable("accounts", types.NewSchema(
		types.Column{Name: "aid", Kind: types.KindInt},
		types.Column{Name: "rid", Kind: types.KindInt},
	))
	for i := 0; i < 40; i++ {
		accounts.MustAppend(types.Row{types.NewInt(int64(10000 + i)), types.NewInt(int64(i % 4))})
	}
	e.RegisterTable(accounts)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT SUM(losses.val * regions.weight) AS wloss
FROM losses, accounts, regions
WHERE losses.cid = accounts.aid AND accounts.rid = regions.rid
WITH RESULTDISTRIBUTION MONTECARLO(32)`
	var out []float64
	for run := 0; run < 2; run++ {
		res, err := e.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Dist.Samples...)
	}
	return out
}

var goldenCases = []struct {
	name string
	run  func(t testing.TB, cfg goldenCfg) []float64
}{
	{"quickstart", goldenQuickstart},
	{"fig2_selfjoin", goldenFig2},
	{"grouped_having", goldenGrouped},
	{"tail_sampling", goldenTail},
	{"det_prefix", goldenDetPrefix},
	{"tail_shared_seeds", goldenTailSharedSeeds},
	{"tail_residual_forms", goldenTailResidualForms},
	{"mc_tiled", goldenMCTiled},
}

// encodeBits renders samples as hex float64 bit patterns: the golden file
// must pin exact bits, not a decimal rendering.
func encodeBits(samples []float64) []string {
	out := make([]string, len(samples))
	for i, v := range samples {
		out[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return out
}

// TestBitIdentityGolden replays every golden query across worker counts
// {1, 2, NumCPU}, prefix cache on/off, and batch sizes {1, 7, 1024} (0 =
// engine default before the streaming executor existed) and requires the
// exact bit pattern captured in testdata/golden6.json.
func TestBitIdentityGolden(t *testing.T) {
	update := os.Getenv("MCDBR_UPDATE_GOLDEN") != ""
	golden := map[string][]string{}
	if !update {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run with MCDBR_UPDATE_GOLDEN=1 to create): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}

	workerGrid := []int{1, 2, runtime.NumCPU()}
	batchGrid := goldenBatchSizes
	if update {
		// Goldens are captured from the canonical configuration only.
		workerGrid = []int{1}
		batchGrid = batchGrid[:1]
	}
	for _, tc := range goldenCases {
		var want []string
		if !update {
			var ok bool
			if want, ok = golden[tc.name]; !ok {
				t.Fatalf("golden file has no entry %q (regenerate with MCDBR_UPDATE_GOLDEN=1)", tc.name)
			}
		}
		for _, w := range workerGrid {
			for _, prefix := range []bool{true, false} {
				for _, bs := range batchGrid {
					cfg := goldenCfg{workers: w, prefix: prefix, batchSize: bs}
					if update && !prefix {
						continue
					}
					got := encodeBits(tc.run(t, cfg))
					if update {
						golden[tc.name] = got
						continue
					}
					if len(got) != len(want) {
						t.Fatalf("%s %s: %d samples, golden has %d", tc.name, cfg, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s %s: sample %d = %s, golden %s", tc.name, cfg, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	if update {
		raw, err := json.MarshalIndent(golden, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
	}
}
