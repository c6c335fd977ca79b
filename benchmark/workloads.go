package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/expr"
	"repro/internal/gibbs"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/mcdbr"
)

// Everything that defines the load lives in this directory: statement
// text, table sizes, per-op seeds and the arrival schedule. Only the table
// generators of internal/workload and the engine and server packages — the
// program under test — are imported.

// mix derives an independent stream of seeds from the benchmark seed
// (splitmix64). It never returns 0, which RunOptions.Seed reads as "use
// the engine seed".
func mix(seed, salt uint64) uint64 {
	z := seed + (salt+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// opSeed is the query seed of the i-th op (warm-up ops have i < 0).
func opSeed(seed uint64, i int) uint64 { return mix(seed, saltOps+uint64(int64(i))) }

// Salts keep the seed streams of tables, ops and schedules apart.
const (
	saltTables   = 1
	saltSchedule = 2
	saltMix      = 3
	saltPool     = 1 << 20
	saltOps      = 1 << 32
)

// outcome is what one op reports to the harness.
type outcome struct {
	// err is an execution error, a refusal, or a failed correctness check.
	err error
	// relErr is |estimate - analytic truth| / truth of the op's checked
	// statistic; NaN when the op carries none.
	relErr float64
	// digest folds the numbers that define the result; equal seeds must
	// give equal digests in the untraced and the traced pass.
	digest uint64
	// diag is the looper's report for tail ops.
	diag *gibbs.Result
	// class, serverMS and respBytes are set by serve_mix requests.
	class     string
	serverMS  float64
	respBytes int
}

func fail(format string, args ...any) outcome {
	return outcome{err: fmt.Errorf(format, args...), relErr: math.NaN()}
}

func fold(h uint64, xs ...float64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for _, x := range xs {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h
}

// instance is one built workload: tables generated, engine built,
// statements prepared, caches warm.
type instance interface {
	// op runs the i-th op of the seed's op list under the given span.
	op(i int, sp ref) outcome
	// probe measures the layers this workload leans on, stand-alone.
	probe(p *prober)
	engine() *mcdbr.Engine
	close() error
}

// kindStmt is one statement kind of the probe set: its text with the
// MONTECARLO count left open.
type kindStmt struct {
	kind string
	sql  func(n int) string
	n    int
}

type workloadDef struct {
	name string
	why  string
	// minOps is the least number of timed ops. The exact counters
	// (gibbs.*, check.result_rel_err) cover these leading ops only, so
	// they repeat bit-for-bit however many more ops fit in the time.
	minOps int
	// clients is the closed loop's client count; openQPS > 0 puts an open
	// loop at that rate over openConns connections in front of it.
	clients   int
	openQPS   float64
	openConns int
	build     func(seed uint64) (instance, error)
}

var workloads = []workloadDef{
	{
		name:   "tail_tpch",
		why:    "App. D tail query: gibbs looper, seeds, pq and vg rejection sampling do the work; parser, planner and kernels idle",
		minOps: 40, clients: 1, build: buildTailTPCH,
	},
	{
		name:   "mc_grouped",
		why:    "warm grouped MONTECARLO(2048) with 2 workers: window-major kernels, bulk vg sampling and replicate shards work; looper and planner idle",
		minOps: 40, clients: 1, build: buildMCGrouped,
	},
	{
		name:   "adhoc_cold",
		why:    "five never-repeated statements per op: parse, plan, cache misses and the version-major and scalar fallbacks that the warm paths skip",
		minOps: 30, clients: 1, build: buildAdhocCold,
	},
	{
		name:   "serve_mix",
		why:    "mixed-priority POST /query over loopback HTTP, open then closed loop: JSON, admission queueing and plan-cache contention dominate small queries",
		minOps: 200, clients: serveClients, openQPS: serveRateQPS, openConns: serveConns, build: buildServeMix,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- shared tables ----

const lossSigma = 1.0

// defineLosses registers <name>_means(cid, m) with n customers and the
// random table <name>(cid, val), val ~ Normal(m, lossSigma^2) — the
// paper's §2 example. It returns the means so that truths can be computed.
func defineLosses(e *mcdbr.Engine, name string, n int, lo, hi float64, seed uint64) ([]float64, error) {
	src := workload.LossMeans(n, lo, hi, seed)
	means := storage.NewTable(name+"_means", src.Schema())
	for _, row := range src.Rows() {
		means.MustAppend(row)
	}
	e.RegisterTable(means)
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: name, ParamTable: means.Name(), VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(lossSigma * lossSigma)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		return nil, err
	}
	mu := make([]float64, n)
	for i, row := range means.Rows() {
		mu[i] = row[1].Float()
	}
	return mu, nil
}

const nGroups = 16

// defineGroups registers grp(cid, g): customer i belongs to group i mod 16.
func defineGroups(e *mcdbr.Engine, n int) {
	grp := storage.NewTable("grp", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindInt},
	))
	for i := 0; i < n; i++ {
		grp.MustAppend(types.Row{types.NewInt(int64(10000 + i)), types.NewInt(int64(i % nGroups))})
	}
	e.RegisterTable(grp)
}

// defineAccounts registers accounts(aid, rid) and regions(rid, weight),
// whose join is the deterministic prefix of the three-table statement.
func defineAccounts(e *mcdbr.Engine, n int) {
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
	for i := 0; i < n; i++ {
		accounts.MustAppend(types.Row{types.NewInt(int64(10000 + i)), types.NewInt(int64(i % 8))})
	}
	e.RegisterTable(accounts)
}

// defineSalaries registers the Fig. 2 salary-inversion database and the
// random table emp(eid, sal), sal ~ Normal(msal, 2000^2).
func defineSalaries(e *mcdbr.Engine) error {
	sup, empmeans := workload.SalaryDB()
	e.RegisterTable(sup)
	e.RegisterTable(empmeans)
	return e.DefineRandomTable(mcdbr.RandomTable{
		Name: "emp", ParamTable: "empmeans", VG: "Normal",
		VGParams: []expr.Expr{expr.C("msal"), expr.F(4e6)},
		Columns:  []mcdbr.RandomCol{{Name: "eid", FromParam: "eid"}, {Name: "sal", VGOut: 0}},
	})
}

// ---- statement text ----

func quickstartSQL(below, n int) string {
	return fmt.Sprintf("SELECT SUM(val) AS totalLoss FROM losses WHERE cid < %d\nWITH RESULTDISTRIBUTION MONTECARLO(%d)", below, n)
}

// fig2SQL is the salary-inversion self-join; tag is a boss name that
// matches nobody, so the literal changes the text and not the result.
func fig2SQL(tag string, n int) string {
	return fmt.Sprintf(`SELECT SUM(emp2.sal - emp1.sal) AS inv
FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid AND emp2.sal > emp1.sal AND sup.boss <> '%s'
WITH RESULTDISTRIBUTION MONTECARLO(%d)`, tag, n)
}

const groupedFrom = "SELECT SUM(l.val) AS s FROM losses l, grp grp\nWHERE l.cid = grp.cid AND l.val > 0.5 GROUP BY grp.g"

func groupedSQL(n int) string {
	return fmt.Sprintf("%s\nWITH RESULTDISTRIBUTION MONTECARLO(%d)", groupedFrom, n)
}

// havingSQL adds a HAVING that every run passes (group sums are positive),
// which sends the query down the version-major fallback.
func havingSQL(above float64, n int) string {
	return fmt.Sprintf("%s HAVING s > %g\nWITH RESULTDISTRIBUTION MONTECARLO(%d)", groupedFrom, above, n)
}

// detPrefixSQL puts a literal inside the deterministic accounts-regions
// join, so every new literal is a new prefix-cache key.
func detPrefixSQL(below, n int) string {
	return fmt.Sprintf(`SELECT SUM(losses.val * regions.weight) AS wloss
FROM losses, accounts, regions
WHERE losses.cid = accounts.aid AND accounts.rid = regions.rid AND accounts.aid < %d
WITH RESULTDISTRIBUTION MONTECARLO(%d)`, below, n)
}

func scalarSQL(below int) string {
	return fmt.Sprintf("SELECT COUNT(*) AS n FROM accounts WHERE aid < %d", below)
}

const tpchFrom = "SELECT SUM(r.val) AS s FROM random_ord AS r, lineitem AS l\nWHERE r.o_orderkey = l.l_orderkey AND (r.o_yr = 1994 OR r.o_yr = 1995)"

// The App. D parameters: p = 0.25^5, l = 100 tail samples, N = 500, m = 5,
// window 1000, on the timing tables at 1/tailScaleDiv of the paper's size.
//
// tailMaxTries caps rejection sampling at one window of candidates per
// update. With the engine's default of 100000 a few updates per op burn
// tens of windows, op latency has a coefficient of variation near 0.8,
// and no statistic of the ops that fit in a run is steady from seed to
// seed; capped, it is 0.25. The price is about 7 abandoned updates out of
// some 60000 per op, which gibbs.giveups_per_op counts, and no change in
// the error of theta-hat.
const (
	tailP        = 0.0009765625
	tailSamples  = 100
	tailN        = 500
	tailM        = 5
	tailWindow   = 1000
	tailScaleDiv = 4000 // 25 orders, 250 lineitems, 25 orphans
	tailMaxTries = 1000
)

var tailSQL = fmt.Sprintf("%s\nWITH RESULTDISTRIBUTION MONTECARLO(%d) DOMAIN s >= QUANTILE(%v)", tpchFrom, tailSamples, 1-tailP)

func tpchMCSQL(n int) string {
	return fmt.Sprintf("%s\nWITH RESULTDISTRIBUTION MONTECARLO(%d)", tpchFrom, n)
}

// ---- checks shared by ops ----

func relErr(est, truth float64) float64 { return math.Abs(est-truth) / math.Abs(truth) }

// checkDist verifies an ungrouped Monte Carlo result has n samples.
func checkDist(res *mcdbr.ExecResult, n int) (*mcdbr.Distribution, error) {
	if res.Kind != mcdbr.ExecDistribution || res.Dist == nil {
		return nil, fmt.Errorf("result kind %s, want distribution", res.Kind)
	}
	if len(res.Dist.Samples) != n {
		return nil, fmt.Errorf("%d samples, want %d", len(res.Dist.Samples), n)
	}
	return res.Dist, nil
}

// groupTruths is the analytic E[SUM(val) over val > cut] per group:
// each customer contributes mu*Phi((mu-cut)/sigma) + sigma*phi((cut-mu)/sigma).
func groupTruths(mu []float64, cut float64) []float64 {
	out := make([]float64, nGroups)
	for i, m := range mu {
		z := (m - cut) / lossSigma
		out[i%nGroups] += m*stats.StdNormalCDF(z) + lossSigma*math.Exp(-z*z/2)/math.Sqrt(2*math.Pi)
	}
	return out
}

// checkGrouped verifies a grouped result has every group with n samples
// and returns the mean over groups of the group mean's relative error.
func checkGrouped(res *mcdbr.ExecResult, n int, truth []float64) (float64, uint64, error) {
	gd := res.Grouped
	if res.Kind != mcdbr.ExecGroupedDistribution || gd == nil {
		return 0, 0, fmt.Errorf("result kind %s, want grouped distribution", res.Kind)
	}
	if len(gd.Groups) != len(truth) {
		return 0, 0, fmt.Errorf("%d groups, want %d", len(gd.Groups), len(truth))
	}
	var sum float64
	var h uint64
	for g := range gd.Groups {
		d := gd.Groups[g].Dists[0]
		if len(d.Samples) != n {
			return 0, 0, fmt.Errorf("group %s: %d samples, want %d", gd.Groups[g].KeyString(), len(d.Samples), n)
		}
		mean := d.Mean()
		sum += relErr(mean, truth[gd.Groups[g].Key[0].Int()])
		h = fold(h, mean, d.Samples[0], d.Samples[n-1])
	}
	return sum / float64(len(truth)), h, nil
}

// ran is one statement's trip down the server's route.
type ran struct {
	res   *mcdbr.ExecResult
	span  ref // the mcdbr.run span, for children rebuilt from the result
	start time.Time
	took  time.Duration
}

// prepareRun is the server's route for one statement: Prepare, then Run.
func prepareRun(e *mcdbr.Engine, sp ref, sql string, opts mcdbr.RunOptions) (ran, error) {
	c := sp.child("mcdbr.prepare")
	pq, err := e.Prepare(sql)
	c.end()
	if err != nil {
		return ran{}, err
	}
	r := ran{span: sp.child("mcdbr.run"), start: time.Now()}
	r.res, err = pq.Run(opts)
	r.took = time.Since(r.start)
	r.span.end()
	return r, err
}

// ---- tail_tpch ----

type tailTPCH struct {
	e     *mcdbr.Engine
	seed  uint64
	truth float64 // analytic (1-p)-quantile of the query result
}

func buildTailTPCH(seed uint64) (instance, error) {
	cfg := workload.TimingTPCH(tailScaleDiv)
	cfg.Seed = mix(seed, saltTables)
	orders, lineitem, err := workload.TPCHLike(cfg)
	if err != nil {
		return nil, err
	}
	e := mcdbr.New(mcdbr.WithSeed(mix(seed, 0)), mcdbr.WithWindow(tailWindow), mcdbr.WithParallelism(1))
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
		return nil, err
	}
	mu, s2 := workload.TPCHAnalytic(orders, lineitem, map[int64]bool{1994: true, 1995: true})
	w := &tailTPCH{e: e, seed: seed, truth: stats.NormalQuantile(1-tailP, mu, math.Sqrt(s2))}
	// Warm-up: plan cached, slabs grown. Six ops, so that set-up time does
	// not follow the luck of one op's seed.
	for i := -6; i < 0; i++ {
		if o := w.op(i, ref{}); o.err != nil {
			return nil, o.err
		}
	}
	return w, nil
}

func (w *tailTPCH) op(i int, sp ref) outcome {
	r, err := prepareRun(w.e, sp, tailSQL, mcdbr.RunOptions{
		Seed: opSeed(w.seed, i), Workers: 1,
		Tail: mcdbr.TailSampleOptions{TotalSamples: tailN, ForceM: tailM, MaxTriesPerUpdate: tailMaxTries},
	})
	if err != nil {
		return fail("tail_tpch op %d: %w", i, err)
	}
	t := r.res.Tail
	if r.res.Kind != mcdbr.ExecTail || t == nil || t.Diag == nil {
		return fail("tail_tpch op %d: result kind %s, want tail", i, r.res.Kind)
	}
	traceLooper(r, t.Diag)
	if len(t.Samples) != tailSamples {
		return fail("tail_tpch op %d: %d tail samples, want %d", i, len(t.Samples), tailSamples)
	}
	for _, s := range t.Samples {
		if s < t.QuantileEstimate {
			return fail("tail_tpch op %d: tail sample %g below theta-hat %g", i, s, t.QuantileEstimate)
		}
	}
	o := outcome{relErr: relErr(t.QuantileEstimate, w.truth), diag: t.Diag,
		digest: fold(0, t.QuantileEstimate, t.Samples[0], t.Samples[tailSamples-1], t.ExpectedShortfall)}
	// theta-hat's own sampling error is a few percent; far outside it the
	// estimator is broken, not unlucky.
	if o.relErr > 0.2 {
		o.err = fmt.Errorf("tail_tpch op %d: theta-hat %g vs analytic %g", i, t.QuantileEstimate, w.truth)
	}
	return o
}

// traceLooper lays the looper's own step durations end to end under the
// run span: what Run took beyond the steps is gibbs.init (first plan run
// plus the N initial versions).
func traceLooper(r ran, d *gibbs.Result) {
	if r.span.t == nil {
		return
	}
	var steps time.Duration
	for _, it := range d.Iters {
		steps += it.Duration
	}
	init := r.took - steps
	r.span.synth("gibbs.init", r.start, init)
	at := r.start.Add(init)
	for _, it := range d.Iters {
		c := r.span.synth("gibbs.step", at, it.Duration)
		c.count("candidates", float64(it.Candidates))
		c.count("accepts", float64(it.Accepts))
		c.count("giveups", float64(it.GiveUps))
		c.count("replenishments", float64(it.Replenishments))
		at = at.Add(it.Duration)
	}
}

func (w *tailTPCH) close() error { return nil }

func (w *tailTPCH) engine() *mcdbr.Engine { return w.e }

func (w *tailTPCH) probe(p *prober) {
	p.engine(w.e, []kindStmt{{"tpch", tpchMCSQL, 256}}, tailSQL)
	p.layers(layerSizes{rows: 100000 / tailScaleDiv, window: tailWindow, queue: 1000000 / tailScaleDiv, result: tailSamples},
		expr.B(expr.OpOr, expr.B(expr.OpEq, expr.C("o_yr"), expr.I(1994)), expr.B(expr.OpEq, expr.C("o_yr"), expr.I(1995))),
		types.NewSchema(types.Column{Name: "o_yr", Kind: types.KindInt}, types.Column{Name: "val", Kind: types.KindFloat}))
}

// ---- mc_grouped ----

const (
	groupedCustomers = 500
	groupedSamples   = 2048
)

type mcGrouped struct {
	e     *mcdbr.Engine
	seed  uint64
	truth []float64
}

func buildMCGrouped(seed uint64) (instance, error) {
	e := mcdbr.New(mcdbr.WithSeed(mix(seed, 0)), mcdbr.WithWindow(4096), mcdbr.WithParallelism(2))
	mu, err := defineLosses(e, "losses", groupedCustomers, 0, 3, mix(seed, saltTables))
	if err != nil {
		return nil, err
	}
	defineGroups(e, groupedCustomers)
	w := &mcGrouped{e: e, seed: seed, truth: groupTruths(mu, 0.5)}
	for i := -3; i < 0; i++ {
		if o := w.op(i, ref{}); o.err != nil {
			return nil, o.err
		}
	}
	return w, nil
}

func (w *mcGrouped) op(i int, sp ref) outcome {
	r, err := prepareRun(w.e, sp, groupedSQL(groupedSamples), mcdbr.RunOptions{
		Seed: opSeed(w.seed, i), Workers: 2,
	})
	if err != nil {
		return fail("mc_grouped op %d: %w", i, err)
	}
	re, h, err := checkGrouped(r.res, groupedSamples, w.truth)
	if err != nil {
		return fail("mc_grouped op %d: %w", i, err)
	}
	o := outcome{relErr: re, digest: h}
	if re > 0.02 { // a group mean of 2048 replicates is good to ~0.3%
		o.err = fmt.Errorf("mc_grouped op %d: group means off the analytic truth by %g on average", i, re)
	}
	return o
}

func (w *mcGrouped) close() error { return nil }

func (w *mcGrouped) engine() *mcdbr.Engine { return w.e }

func (w *mcGrouped) probe(p *prober) {
	p.engine(w.e, []kindStmt{{"grouped", groupedSQL, groupedSamples}}, groupedSQL(groupedSamples))
	p.layers(layerSizes{rows: groupedCustomers, window: groupedSamples, queue: groupedCustomers, result: groupedSamples},
		expr.B(expr.OpGt, expr.C("val"), expr.F(0.5)), lossSchema)
}

var lossSchema = types.NewSchema(types.Column{Name: "cid", Kind: types.KindInt}, types.Column{Name: "val", Kind: types.KindFloat})

// ---- adhoc_cold ----

type adhocCold struct {
	e        *mcdbr.Engine
	seed     uint64
	sumMu    float64
	grpTruth []float64
}

const adhocCustomers = 500

func buildAdhocCold(seed uint64) (instance, error) {
	e := mcdbr.New(mcdbr.WithSeed(mix(seed, 0)), mcdbr.WithParallelism(1))
	mu, err := defineLosses(e, "losses", adhocCustomers, 0, 3, mix(seed, saltTables))
	if err != nil {
		return nil, err
	}
	defineGroups(e, adhocCustomers)
	defineAccounts(e, adhocCustomers)
	if err := defineSalaries(e); err != nil {
		return nil, err
	}
	w := &adhocCold{e: e, seed: seed, grpTruth: groupTruths(mu, 0.5)}
	for _, m := range mu {
		w.sumMu += m
	}
	// Warm-up grows slabs and pools; its statement texts never come back,
	// so the caches stay cold for the timed ops.
	for i := -3; i < 0; i++ {
		if o := w.op(i, ref{}); o.err != nil {
			return nil, o.err
		}
	}
	return w, nil
}

// stmt is one statement of an adhoc_cold op and its replicate count.
type stmt struct {
	kind, sql string
	n         int
}

// adhocStmts is the i-th analyst session: five statements whose literals
// rotate with i and leave every result set unchanged.
func adhocStmts(i int) [5]stmt {
	lit := 20000 + i // above every cid and aid, so "< lit" keeps all rows
	return [5]stmt{
		{"quickstart", quickstartSQL(lit, 256), 256},
		{"fig2", fig2SQL(fmt.Sprintf("nobody%d", i), 128), 128},
		{"having", havingSQL(-float64(lit)-0.5, 256), 256},
		{"detprefix", detPrefixSQL(lit, 64), 64},
		{"scalar", scalarSQL(lit), 0},
	}
}

func (w *adhocCold) op(i int, sp ref) outcome {
	o := outcome{relErr: math.NaN()}
	opts := mcdbr.RunOptions{Seed: opSeed(w.seed, i), Workers: 1}
	for _, st := range adhocStmts(i) {
		c := sp.child("stmt." + st.kind)
		r, err := prepareRun(w.e, c, st.sql, opts)
		c.end()
		if err != nil {
			return fail("adhoc_cold op %d %s: %w", i, st.kind, err)
		}
		res := r.res
		switch st.kind {
		case "quickstart":
			d, err := checkDist(res, st.n)
			if err != nil {
				return fail("adhoc_cold op %d %s: %w", i, st.kind, err)
			}
			o.relErr = relErr(d.Mean(), w.sumMu)
			o.digest = fold(o.digest, d.Mean())
		case "fig2", "detprefix":
			d, err := checkDist(res, st.n)
			if err != nil {
				return fail("adhoc_cold op %d %s: %w", i, st.kind, err)
			}
			o.digest = fold(o.digest, d.Mean())
		case "having":
			_, h, err := checkGrouped(res, st.n, w.grpTruth)
			if err != nil {
				return fail("adhoc_cold op %d %s: %w", i, st.kind, err)
			}
			o.digest ^= h
		case "scalar":
			if res.Kind != mcdbr.ExecScalar || res.Scalar != adhocCustomers {
				return fail("adhoc_cold op %d scalar: COUNT(*) = %g (%s), want %d", i, res.Scalar, res.Kind, adhocCustomers)
			}
		}
	}
	if o.relErr > 0.02 { // the mean of 256 sums of 500 normals is good to ~0.2%
		o.err = fmt.Errorf("adhoc_cold op %d: quickstart mean off the analytic truth by %g", i, o.relErr)
	}
	return o
}

func (w *adhocCold) close() error { return nil }

func (w *adhocCold) engine() *mcdbr.Engine { return w.e }

func (w *adhocCold) probe(p *prober) {
	const lit = 90000 // literals the ops never use
	p.engine(w.e, []kindStmt{
		{"detprefix", func(n int) string { return detPrefixSQL(lit, n) }, 64},
		{"quickstart", func(n int) string { return quickstartSQL(lit, n) }, 256},
		{"fig2", func(n int) string { return fig2SQL("probe", n) }, 128},
		{"grouped", groupedSQL, 256},
		{"having", func(n int) string { return havingSQL(-lit, n) }, 256},
	}, scalarSQL(lit))
	p.layers(layerSizes{rows: adhocCustomers, window: 256, queue: adhocCustomers, result: 256},
		expr.B(expr.OpLt, expr.C("cid"), expr.I(lit)), lossSchema)
}
