package mcdbr

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/workload"
)

// checkGolden compares an EXPLAIN rendering against its expected text,
// pointing at the first differing line.
func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\n got: %q\nwant: %q\n\nfull output:\n%s", name, i+1, gl[i], wl[i], got)
		}
	}
	t.Fatalf("%s: length differs (%d vs %d lines):\n%s", name, len(gl), len(wl), got)
}

// TestExplainGoldenQuickstart pins the plan shape of the §2 quickstart
// aggregate: pushdown of the CID filter below the generation pipeline and
// the deterministic parameter scan marked for materialization caching.
func TestExplainGoldenQuickstart(t *testing.T) {
	e := New(WithSeed(42))
	e.RegisterTable(workload.LossMeans(100, 2, 8, 7))
	if _, err := e.Exec(`
CREATE TABLE Losses (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.* FROM myVal`); err != nil {
		t.Fatal(err)
	}
	x, err := e.Explain(`EXPLAIN SELECT SUM(val) AS totalLoss FROM Losses WHERE CID < 10050 WITH RESULTDISTRIBUTION MONTECARLO(1000)`)
	if err != nil {
		t.Fatal(err)
	}
	want := `logical plan:
  Aggregate[SUM(Losses.val) AS totalLoss] [rows~1]
    Filter((Losses.CID < 10050)) [rows~30]
      Rename(Losses) [rows~100]
        Project[CID, val] [rows~100]
          Instantiate [rows~100]
            Seed(Normal) [rows~100]
              Rel(means AS __param) [rows~100 det]
rules fired:
  resolve-columns
  expand-random-tables
  push-filters-below-joins
  place-aggregate
  mark-deterministic
physical plan:
  Aggregate[SUM(Losses.val) AS totalLoss] [sink] [vectorized=true]
    Select((Losses.CID < 10050)) [stream] [vectorized=true]
      Rename(Losses) [stream]
        Project[__param.CID __vg0] [stream]
          Instantiate [stream]
            Seed(Normal) [stream]
              Scan(means AS __param) [det] [stream]
aggregate: SUM(Losses.val) AS totalLoss
note: streaming executor: pull-based batches of 1024 tuples
note: plain Monte Carlo, 1000 repetitions
`
	checkGolden(t, "quickstart", x.String(), want)
}

// TestExplainGoldenSalaryInversion pins the Fig. 2 self-join: joins are
// ordered smallest-first (sup, 4 rows, not FROM order), and the cross-seed
// predicate emp2.sal > emp1.sal leaves the plan for the looper's final
// predicate (paper App. A).
func TestExplainGoldenSalaryInversion(t *testing.T) {
	e := New(WithSeed(77))
	sup, empmeans := workload.SalaryDB()
	e.RegisterTable(sup)
	e.RegisterTable(empmeans)
	if err := e.DefineRandomTable(RandomTable{
		Name: "emp", ParamTable: "empmeans", VG: "Normal",
		VGParams: []expr.Expr{expr.C("msal"), expr.F(4e6)},
		Columns:  []RandomCol{{Name: "eid", FromParam: "eid"}, {Name: "sal", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	x, err := e.Explain(`EXPLAIN SELECT SUM(emp2.sal - emp1.sal) AS inv
FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid AND emp2.sal > emp1.sal
WITH RESULTDISTRIBUTION MONTECARLO(100)`)
	if err != nil {
		t.Fatal(err)
	}
	want := `logical plan:
  Aggregate[SUM((emp2.sal - emp1.sal)) AS inv] [rows~1]
    Join(sup.peon = emp2.eid) [rows~4]
      Join(sup.boss = emp1.eid) [rows~4]
        Rel(sup AS sup) [rows~4 det]
        Rename(emp1) [rows~5]
          Project[eid, sal] [rows~5]
            Instantiate [rows~5]
              Seed(Normal) [rows~5]
                Rel(empmeans AS __param) [rows~5 det]
      Rename(emp2) [rows~5]
        Project[eid, sal] [rows~5]
          Instantiate [rows~5]
            Seed(Normal) [rows~5]
              Rel(empmeans AS __param) [rows~5 det]
rules fired:
  expand-random-tables
  order-joins-greedy
  extract-looper-predicates
  place-aggregate
  mark-deterministic
physical plan:
  Aggregate[SUM((emp2.sal - emp1.sal)) AS inv] [sink] [vectorized=true]
    HashJoin([sup.peon] = [emp2.eid]) [build+stream] [vectorized=true]
      HashJoin([sup.boss] = [emp1.eid]) [build+stream] [vectorized=true]
        Scan(sup AS sup) [det] [stream]
        Rename(emp1) [stream]
          Project[__param.eid __vg0] [stream]
            Instantiate [stream]
              Seed(Normal) [stream]
                Scan(empmeans AS __param) [det] [stream]
      Rename(emp2) [stream]
        Project[__param.eid __vg0] [stream]
          Instantiate [stream]
            Seed(Normal) [stream]
              Scan(empmeans AS __param) [det] [stream]
final predicate (Gibbs looper): (emp2.sal > emp1.sal)
aggregate: SUM((emp2.sal - emp1.sal)) AS inv
note: streaming executor: pull-based batches of 1024 tuples
note: plain Monte Carlo, 100 repetitions
`
	checkGolden(t, "salary-inversion", x.String(), want)
}

// TestExplainGoldenSplitJoin pins the §8 rewrite: a join keyed on a
// VG-generated attribute gets a Split below the join, converting the
// random key into a deterministic one.
func TestExplainGoldenSplitJoin(t *testing.T) {
	e := New(WithSeed(31))
	rc := storage.NewTable("riskclass", types.NewSchema(
		types.Column{Name: "rid", Kind: types.KindFloat},
		types.Column{Name: "premium", Kind: types.KindFloat},
	))
	rc.MustAppend(types.Row{types.NewFloat(0), types.NewFloat(10)})
	rc.MustAppend(types.Row{types.NewFloat(1), types.NewFloat(100)})
	e.RegisterTable(rc)
	cust := storage.NewTable("cust", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "p", Kind: types.KindFloat},
	))
	for i := 0; i < 12; i++ {
		cust.MustAppend(types.Row{types.NewInt(int64(i)), types.NewFloat(0.25)})
	}
	e.RegisterTable(cust)
	if err := e.DefineRandomTable(RandomTable{
		Name: "assignment", ParamTable: "cust", VG: "Bernoulli",
		VGParams: []expr.Expr{expr.C("p")},
		Columns:  []RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "class", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	x, err := e.Explain(`EXPLAIN SELECT SUM(r.premium) AS total FROM assignment AS a, riskclass AS r
WHERE a.class = r.rid WITH RESULTDISTRIBUTION MONTECARLO(4000)`)
	if err != nil {
		t.Fatal(err)
	}
	want := `logical plan:
  Aggregate[SUM(r.premium) AS total] [rows~1]
    Join(r.rid = a.class) [rows~2]
      Rel(riskclass AS r) [rows~2 det]
      Split(a.class) [rows~48]
        Rename(a) [rows~12]
          Project[cid, class] [rows~12]
            Instantiate [rows~12]
              Seed(Bernoulli) [rows~12]
                Rel(cust AS __param) [rows~12 det]
rules fired:
  expand-random-tables
  order-joins-greedy
  split-random-join-keys
  place-aggregate
  mark-deterministic
physical plan:
  Aggregate[SUM(r.premium) AS total] [sink] [vectorized=true]
    HashJoin([r.rid] = [a.class]) [build+stream] [vectorized=true]
      Scan(riskclass AS r) [det] [stream]
      Split(a.class) [stream]
        Rename(a) [stream]
          Project[__param.cid __vg0] [stream]
            Instantiate [stream]
              Seed(Bernoulli) [stream]
                Scan(cust AS __param) [det] [stream]
aggregate: SUM(r.premium) AS total
note: streaming executor: pull-based batches of 1024 tuples
note: plain Monte Carlo, 4000 repetitions
`
	checkGolden(t, "split-join", x.String(), want)
}

// TestExplainGoldenGroupByTail pins the App. A GROUP BY treatment: the
// grouped Aggregate root plus notes for the per-group conditioned Gibbs
// runs and tail sampling.
func TestExplainGoldenGroupByTail(t *testing.T) {
	e := New(WithSeed(42))
	e.RegisterTable(workload.LossMeans(100, 2, 8, 7))
	if _, err := e.Exec(`
CREATE TABLE Losses (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.* FROM myVal`); err != nil {
		t.Fatal(err)
	}
	x, err := e.Explain(`EXPLAIN SELECT SUM(val) AS x FROM Losses GROUP BY CID
WITH RESULTDISTRIBUTION MONTECARLO(20) DOMAIN x >= QUANTILE(0.9)`)
	if err != nil {
		t.Fatal(err)
	}
	want := `logical plan:
  Aggregate[SUM(Losses.val) AS x; group by Losses.CID] [rows~10]
    Rename(Losses) [rows~100]
      Project[CID, val] [rows~100]
        Instantiate [rows~100]
          Seed(Normal) [rows~100]
            Rel(means AS __param) [rows~100 det]
rules fired:
  resolve-columns
  expand-random-tables
  place-aggregate
  mark-deterministic
physical plan:
  Aggregate[SUM(Losses.val) AS x; group by Losses.CID] [sink] [vectorized=true]
    Rename(Losses) [stream]
      Project[__param.CID __vg0] [stream]
        Instantiate [stream]
          Seed(Normal) [stream]
            Scan(means AS __param) [det] [stream]
aggregate: SUM(Losses.val) AS x
note: streaming executor: pull-based batches of 1024 tuples
note: GROUP BY CID: one conditioned Gibbs run per group over one shared plan (paper App. A)
note: DOMAIN x >= QUANTILE(0.9): Gibbs tail sampling, 20 conditioned samples
`
	checkGolden(t, "group-by-tail", x.String(), want)
}

// TestExplainGoldenGroupedHaving pins a grouped HAVING aggregate: HAVING
// runs on the window-major path's finished per-group lanes, so the
// Aggregate is marked vectorized like any other grouped aggregate.
func TestExplainGoldenGroupedHaving(t *testing.T) {
	e := New(WithSeed(42))
	e.RegisterTable(workload.LossMeans(100, 2, 8, 7))
	if _, err := e.Exec(`
CREATE TABLE Losses (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.* FROM myVal`); err != nil {
		t.Fatal(err)
	}
	x, err := e.Explain(`EXPLAIN SELECT SUM(val) AS s, COUNT(*) AS c FROM Losses WHERE val > 4.0
GROUP BY CID HAVING s > 5.0 WITH RESULTDISTRIBUTION MONTECARLO(100)`)
	if err != nil {
		t.Fatal(err)
	}
	want := `logical plan:
  Aggregate[SUM(Losses.val) AS s, COUNT(*) AS c; group by Losses.CID; having (s > 5)] [rows~3]
    Filter((Losses.val > 4)) [rows~30]
      Rename(Losses) [rows~100]
        Project[CID, val] [rows~100]
          Instantiate [rows~100]
            Seed(Normal) [rows~100]
              Rel(means AS __param) [rows~100 det]
rules fired:
  resolve-columns
  expand-random-tables
  push-filters-below-joins
  place-aggregate
  mark-deterministic
physical plan:
  Aggregate[SUM(Losses.val) AS s, COUNT(*) AS c; group by Losses.CID; having (s > 5)] [sink] [vectorized=true]
    Select((Losses.val > 4)) [stream] [vectorized=true]
      Rename(Losses) [stream]
        Project[__param.CID __vg0] [stream]
          Instantiate [stream]
            Seed(Normal) [stream]
              Scan(means AS __param) [det] [stream]
aggregate: SUM(Losses.val) AS s, COUNT(*) AS c
note: streaming executor: pull-based batches of 1024 tuples
note: GROUP BY CID: single-pass grouped aggregation (one plan run, per-group aggregate vectors)
note: plain Monte Carlo, 100 repetitions
`
	checkGolden(t, "grouped-having", x.String(), want)
}

// TestExplainFromBuilder: the fluent API exposes the same explanation.
func TestExplainFromBuilder(t *testing.T) {
	e := New(WithSeed(1))
	e.RegisterTable(workload.LossMeans(10, 2, 8, 3))
	if err := e.DefineRandomTable(RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	x, err := e.Query().From("losses", "l").
		Where(expr.B(expr.OpLt, expr.C("cid"), expr.I(10005))).
		SelectSum(expr.C("val")).
		Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(x.Logical, "Filter((l.cid < 10005))") {
		t.Fatalf("builder explain missing resolved filter:\n%s", x.Logical)
	}
	if len(x.Rules) == 0 || x.Rules[0] != "resolve-columns" {
		t.Fatalf("rules = %v", x.Rules)
	}
	if !strings.Contains(x.Physical, "Seed(Normal)") {
		t.Fatalf("physical plan missing Seed:\n%s", x.Physical)
	}
}

// TestExplainErrors: EXPLAIN rejects what it cannot plan.
func TestExplainErrors(t *testing.T) {
	e := New(WithSeed(1))
	e.RegisterTable(workload.LossMeans(5, 2, 8, 3))
	if _, err := e.Explain(`EXPLAIN SELECT MIN(m) FROM means`); err == nil {
		t.Fatal("MIN must not be plannable")
	}
	if _, err := e.Explain(`SELECT SUM(x) FROM nope WITH RESULTDISTRIBUTION MONTECARLO(5)`); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := e.Exec(`EXPLAIN CREATE TABLE x (a) AS FOR EACH a IN means WITH v AS Normal(VALUES(m,1)) SELECT v.*`); err == nil {
		t.Fatal("EXPLAIN CREATE must be rejected")
	}
}

// TestExecExplainKind: EXPLAIN through Exec produces ExecExplained without
// running the query.
func TestExecExplainKind(t *testing.T) {
	e := New(WithSeed(42))
	e.RegisterTable(workload.LossMeans(10, 2, 8, 7))
	if _, err := e.Exec(`
CREATE TABLE Losses (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.* FROM myVal`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(`EXPLAIN SELECT SUM(val) AS t FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(999999999)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecExplained || res.Explain == nil {
		t.Fatalf("res = %+v", res)
	}
	if !strings.Contains(res.Explain.String(), "Seed(Normal)") {
		t.Fatalf("explain text:\n%s", res.Explain)
	}
}

// groupedPrefixEngine builds the det-grouped-prefix workload: random
// losses joined through two deterministic tables (grp: cid->rid,
// regions: rid->name) and grouped by region name. The planner joins the
// two deterministic tables first (smallest-first greedy order), so the
// grouped query has a non-leaf deterministic prefix that lowers under
// Materialize and lands in the engine's prefix cache.
func groupedPrefixEngine(t testing.TB) *Engine {
	t.Helper()
	e := New(WithSeed(123), WithWindow(2048))
	e.RegisterTable(workload.LossMeans(8, 2, 8, 11))
	if err := e.DefineRandomTable(RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	regions := storage.NewTable("regions", types.NewSchema(
		types.Column{Name: "rid", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
	))
	regions.MustAppend(types.Row{types.NewInt(0), types.NewString("east")})
	regions.MustAppend(types.Row{types.NewInt(1), types.NewString("west")})
	e.RegisterTable(regions)
	grp := storage.NewTable("grp", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "rid", Kind: types.KindInt},
	))
	m, _ := e.Table("means")
	for i, r := range m.Rows() {
		grp.MustAppend(types.Row{r[0], types.NewInt(int64(i % 2))})
	}
	e.RegisterTable(grp)
	return e
}

const groupedPrefixSQL = `SELECT SUM(l.val) AS s, COUNT(*) AS n FROM losses l, grp g, regions r
WHERE g.cid = l.cid AND g.rid = r.rid
GROUP BY r.name
WITH RESULTDISTRIBUTION MONTECARLO(40)`

// TestExplainGoldenGroupedDetPrefix pins the ISSUE 5 grouped plan shape:
// a multi-aggregate Aggregate root, and the deterministic regions-grp
// join materialized below it (Materialize node, PR-4 prefix cache).
func TestExplainGoldenGroupedDetPrefix(t *testing.T) {
	e := groupedPrefixEngine(t)
	x, err := e.Explain(`EXPLAIN ` + groupedPrefixSQL)
	if err != nil {
		t.Fatal(err)
	}
	want := `logical plan:
  Aggregate[SUM(l.val) AS s, COUNT(*) AS n; group by r.name] [rows~1]
    Join(g.cid = l.cid) [rows~2]
      Join(r.rid = g.rid) [rows~2 det]
        Rel(regions AS r) [rows~2 det]
        Rel(grp AS g) [rows~8 det]
      Rename(l) [rows~8]
        Project[cid, val] [rows~8]
          Instantiate [rows~8]
            Seed(Normal) [rows~8]
              Rel(means AS __param) [rows~8 det]
rules fired:
  expand-random-tables
  order-joins-greedy
  place-aggregate
  mark-deterministic
physical plan:
  Aggregate[SUM(l.val) AS s, COUNT(*) AS n; group by r.name] [sink] [vectorized=true]
    HashJoin([g.cid] = [l.cid]) [build+stream] [vectorized=true]
      Materialize [det] [sink]
        HashJoin([r.rid] = [g.rid]) [det] [build+stream] [vectorized=true]
          Scan(regions AS r) [det] [stream]
          Scan(grp AS g) [det] [stream]
      Rename(l) [stream]
        Project[__param.cid __vg0] [stream]
          Instantiate [stream]
            Seed(Normal) [stream]
              Scan(means AS __param) [det] [stream]
aggregate: SUM(l.val) AS s, COUNT(*) AS n
note: streaming executor: pull-based batches of 1024 tuples
note: GROUP BY r.name: single-pass grouped aggregation (one plan run, per-group aggregate vectors)
note: plain Monte Carlo, 40 repetitions
`
	checkGolden(t, "grouped-det-prefix", x.String(), want)
}

// TestGroupedDetPrefixHitsCache: re-executing the grouped query serves
// the materialized deterministic join from the engine prefix cache.
func TestGroupedDetPrefixHitsCache(t *testing.T) {
	e := groupedPrefixEngine(t)
	r1, err := e.Exec(groupedPrefixSQL)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kind != ExecGroupedDistribution || len(r1.Grouped.Groups) != 2 {
		t.Fatalf("kind=%v groups=%d", r1.Kind, len(r1.Grouped.Groups))
	}
	_, misses0, _ := e.PrefixCacheStats()
	if misses0 == 0 {
		t.Fatal("first run should have populated the prefix cache")
	}
	r2, err := e.Exec(groupedPrefixSQL)
	if err != nil {
		t.Fatal(err)
	}
	hits, _, _ := e.PrefixCacheStats()
	if hits == 0 {
		t.Fatal("second run did not hit the prefix cache")
	}
	// Cache reuse never changes samples.
	for g := range r1.Grouped.Groups {
		a, b := r1.Grouped.Groups[g], r2.Grouped.Groups[g]
		for i := range a.Dists[0].Samples {
			if a.Dists[0].Samples[i] != b.Dists[0].Samples[i] {
				t.Fatalf("group %s sample %d changed across cached runs", a.KeyString(), i)
			}
		}
	}
}
