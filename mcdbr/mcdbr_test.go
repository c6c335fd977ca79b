package mcdbr

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/workload"
)

// ResultBits fingerprints a plain, grouped or tail Monte Carlo result down
// to the bit pattern of every sample and, per group, the key and HAVING
// inclusion (tails: the quantile estimate), so two results compare equal
// iff they are bit-identical.
// Exported for the external mcdbr_test package's identity tests.
func ResultBits(t testing.TB, res *ExecResult) string {
	t.Helper()
	var sb strings.Builder
	bits := func(samples []float64) {
		fmt.Fprintf(&sb, "#%d:", len(samples))
		for _, s := range samples {
			fmt.Fprintf(&sb, "%016x,", math.Float64bits(s))
		}
	}
	switch res.Kind {
	case ExecDistribution:
		bits(res.Dist.Samples)
	case ExecGroupedDistribution:
		for i := range res.Grouped.Groups {
			g := &res.Grouped.Groups[i]
			fmt.Fprintf(&sb, "\ngroup %s incl=%016x ", g.KeyString(), math.Float64bits(g.Inclusion))
			for _, d := range g.Dists {
				bits(d.Samples)
			}
		}
	case ExecTail:
		fmt.Fprintf(&sb, "q=%016x ", math.Float64bits(res.Tail.QuantileEstimate))
		bits(res.Tail.Samples)
	case ExecGroupedTail:
		for _, g := range res.GroupedTail.Groups {
			fmt.Fprintf(&sb, "\ngroup %s q=%016x ", g.KeyString(), math.Float64bits(g.Tail.QuantileEstimate))
			bits(g.Tail.Samples)
		}
	default:
		t.Fatalf("unexpected result kind %v", res.Kind)
	}
	return sb.String()
}

// lossEngine builds the §2 example: means(cid, m) and the random table
// losses(cid, val) with val ~ Normal(m, 1).
func lossEngine(t testing.TB, nCustomers int, seed uint64) *Engine {
	t.Helper()
	e := New(WithSeed(seed), WithWindow(2048))
	e.RegisterTable(workload.LossMeans(nCustomers, 2, 8, 11))
	err := e.DefineRandomTable(RandomTable{
		Name:       "losses",
		ParamTable: "means",
		VG:         "Normal",
		VGParams:   []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns: []RandomCol{
			{Name: "cid", FromParam: "cid"},
			{Name: "val", VGOut: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// analyticLoss returns mean/variance of SUM(val) over all customers.
func analyticLoss(e *Engine) (mu, sigma2 float64) {
	t, _ := e.Table("means")
	for _, r := range t.Rows() {
		mu += r[1].Float()
		sigma2 += 1
	}
	return mu, sigma2
}

func TestDefineRandomTableValidation(t *testing.T) {
	e := New()
	e.RegisterTable(workload.LossMeans(5, 2, 8, 1))
	cases := []RandomTable{
		{}, // no name
		{Name: "x", ParamTable: "nope", VG: "Normal"},                                                 // missing param
		{Name: "x", ParamTable: "means", VG: "NoVG"},                                                  // missing VG
		{Name: "x", ParamTable: "means", VG: "Normal"},                                                // wrong arity
		{Name: "x", ParamTable: "means", VG: "Normal", VGParams: []expr.Expr{expr.C("m"), expr.F(1)}}, // no cols
		{Name: "x", ParamTable: "means", VG: "Normal", VGParams: []expr.Expr{expr.C("m"), expr.F(1)},
			Columns: []RandomCol{{Name: "a", FromParam: "zzz"}}}, // bad param col
		{Name: "x", ParamTable: "means", VG: "Normal", VGParams: []expr.Expr{expr.C("m"), expr.F(1)},
			Columns: []RandomCol{{Name: "a", VGOut: 5}}}, // bad VG out
		{Name: "x", ParamTable: "means", VG: "Normal", VGParams: []expr.Expr{expr.C("m"), expr.F(1)},
			Columns: []RandomCol{{Name: "a", FromParam: "cid"}}}, // no VG output exposed
	}
	for i, rt := range cases {
		if err := e.DefineRandomTable(rt); err == nil {
			t.Errorf("case %d should fail: %+v", i, rt)
		}
	}
}

func TestMonteCarloDistribution(t *testing.T) {
	e := lossEngine(t, 20, 1)
	mu, sigma2 := analyticLoss(e)
	d, err := e.Query().From("losses", "").SelectSum(expr.C("val")).MonteCarlo(3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Samples) != 3000 {
		t.Fatalf("samples = %d", len(d.Samples))
	}
	if math.Abs(d.Mean()-mu) > 4*math.Sqrt(sigma2/3000) {
		t.Fatalf("mean = %g, want %g", d.Mean(), mu)
	}
	if math.Abs(d.Std()-math.Sqrt(sigma2)) > 0.4 {
		t.Fatalf("std = %g, want %g", d.Std(), math.Sqrt(sigma2))
	}
	// FTable sums to 1 and its expected value matches the mean.
	if math.Abs(d.ExpectedValue()-d.Mean()) > 1e-9 {
		t.Fatalf("FTable mean %g vs sample mean %g", d.ExpectedValue(), d.Mean())
	}
}

func TestMonteCarloWithPredicate(t *testing.T) {
	e := lossEngine(t, 30, 2)
	// Only customers with cid < 10015 (the paper's WHERE CID < 10010 shape).
	d, err := e.Query().From("losses", "").
		Where(expr.B(expr.OpLt, expr.C("cid"), expr.I(10015))).
		SelectSum(expr.C("val")).
		MonteCarlo(2000)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Table("means")
	mu := 0.0
	for _, r := range tbl.Rows() {
		if r[0].Int() < 10015 {
			mu += r[1].Float()
		}
	}
	if math.Abs(d.Mean()-mu) > 0.5 {
		t.Fatalf("mean = %g, want %g", d.Mean(), mu)
	}
}

func TestTailSampleUpperMatchesAnalytic(t *testing.T) {
	e := lossEngine(t, 25, 3)
	mu, sigma2 := analyticLoss(e)
	res, err := e.Query().From("losses", "").SelectSum(expr.C("val")).
		TailSample(0.01, 100, TailSampleOptions{TotalSamples: 400})
	if err != nil {
		t.Fatal(err)
	}
	want := stats.NormalQuantile(0.99, mu, math.Sqrt(sigma2))
	if math.Abs(res.QuantileEstimate-want) > 2.5 {
		t.Fatalf("quantile = %g, want ≈ %g", res.QuantileEstimate, want)
	}
	if len(res.Samples) != 100 {
		t.Fatalf("tail samples = %d", len(res.Samples))
	}
	if res.Min() < res.QuantileEstimate {
		t.Fatalf("min tail sample %g below quantile %g", res.Min(), res.QuantileEstimate)
	}
	// Expected shortfall exceeds the quantile and tracks the analytic value.
	wantES := stats.NormalExpectedShortfall(0.01, mu, math.Sqrt(sigma2))
	if res.ExpectedShortfall <= res.QuantileEstimate {
		t.Fatal("ES must exceed VaR")
	}
	if math.Abs(res.ExpectedShortfall-wantES) > 3 {
		t.Fatalf("ES = %g, want ≈ %g", res.ExpectedShortfall, wantES)
	}
}

func TestTailSampleLower(t *testing.T) {
	e := lossEngine(t, 25, 4)
	mu, sigma2 := analyticLoss(e)
	res, err := e.Query().From("losses", "").SelectSum(expr.C("val")).
		TailSample(0.01, 50, TailSampleOptions{TotalSamples: 400, Lower: true})
	if err != nil {
		t.Fatal(err)
	}
	want := stats.NormalQuantile(0.01, mu, math.Sqrt(sigma2))
	if math.Abs(res.QuantileEstimate-want) > 2.5 {
		t.Fatalf("lower quantile = %g, want ≈ %g", res.QuantileEstimate, want)
	}
	for _, s := range res.Samples {
		if s > res.QuantileEstimate {
			t.Fatalf("lower-tail sample %g above quantile", s)
		}
	}
}

func TestJoinQueryWithRandomTable(t *testing.T) {
	// losses ⋈ dept on cid: each customer weighted by dept membership.
	e := lossEngine(t, 10, 5)
	dept := storage.NewTable("dept", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "w", Kind: types.KindFloat},
	))
	tbl, _ := e.Table("means")
	mu := 0.0
	n := 0
	for i, r := range tbl.Rows() {
		if i%2 == 0 {
			dept.MustAppend(types.Row{r[0], types.NewFloat(1)})
			mu += r[1].Float()
			n++
		}
	}
	e.RegisterTable(dept)
	d, err := e.Query().
		From("losses", "l").
		From("dept", "d").
		Where(expr.B(expr.OpEq, expr.C("l.cid"), expr.C("d.cid"))).
		SelectSum(expr.C("l.val")).
		MonteCarlo(2000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-mu) > 4*math.Sqrt(float64(n)/2000)+0.2 {
		t.Fatalf("join mean = %g, want %g", d.Mean(), mu)
	}
}

func TestSalaryInversionSelfJoin(t *testing.T) {
	// The paper's Fig. 2 query: total salary inversion via a self-join on
	// the random emp table, with the cross-seed predicate sal2 > sal1
	// pulled into the looper.
	e := New(WithSeed(6), WithWindow(2048))
	sup, em := workload.SalaryDB()
	e.RegisterTable(sup)
	e.RegisterTable(em)
	if err := e.DefineRandomTable(RandomTable{
		Name:       "emp",
		ParamTable: "empmeans",
		VG:         "Normal",
		VGParams:   []expr.Expr{expr.C("msal"), expr.F(4e6)}, // sd 2000
		Columns: []RandomCol{
			{Name: "eid", FromParam: "eid"},
			{Name: "sal", VGOut: 0},
		},
	}); err != nil {
		t.Fatal(err)
	}
	q := e.Query().
		From("emp", "emp1").
		From("emp", "emp2").
		From("sup", "sup").
		Where(expr.B(expr.OpEq, expr.C("sup.boss"), expr.C("emp1.eid"))).
		Where(expr.B(expr.OpEq, expr.C("sup.peon"), expr.C("emp2.eid"))).
		Where(expr.B(expr.OpLt, expr.C("emp1.sal"), expr.F(90000))).
		Where(expr.B(expr.OpGt, expr.C("emp2.sal"), expr.F(25000))).
		Where(expr.B(expr.OpGt, expr.C("emp2.sal"), expr.C("emp1.sal"))).
		SelectSum(expr.B(expr.OpSub, expr.C("emp2.sal"), expr.C("emp1.sal")))
	d, err := q.MonteCarlo(1500)
	if err != nil {
		t.Fatal(err)
	}
	// Most repetitions have no inversion (bosses earn much more), so the
	// distribution has an atom at 0 and a positive tail.
	if d.Mean() < 0 {
		t.Fatalf("mean inversion = %g", d.Mean())
	}
	zeroFrac := 0.0
	for _, s := range d.Samples {
		if s == 0 {
			zeroFrac++
		}
	}
	zeroFrac /= float64(len(d.Samples))
	if zeroFrac < 0.2 {
		t.Fatalf("expected a large zero atom, got %g", zeroFrac)
	}
	// Tail sampling must walk into the inversion tail.
	res, err := q.TailSample(0.02, 40, TailSampleOptions{TotalSamples: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuantileEstimate <= 0 {
		t.Fatalf("tail quantile = %g, want > 0", res.QuantileEstimate)
	}
	for _, s := range res.Samples {
		if s < res.QuantileEstimate {
			t.Fatalf("tail sample %g below quantile", s)
		}
	}
}

func TestGroupedTailSample(t *testing.T) {
	e := lossEngine(t, 8, 7)
	// Group customers into two halves via a dept table.
	dept := storage.NewTable("grp", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindString},
	))
	tbl, _ := e.Table("means")
	for i, r := range tbl.Rows() {
		g := "a"
		if i >= 4 {
			g = "b"
		}
		dept.MustAppend(types.Row{r[0], types.NewString(g)})
	}
	e.RegisterTable(dept)
	q := e.Query().
		From("losses", "l").
		From("grp", "grp").
		Where(expr.B(expr.OpEq, expr.C("l.cid"), expr.C("grp.cid"))).
		SelectSum(expr.C("l.val")).
		GroupBy(expr.C("grp.g"))
	out, err := q.TailSampleGrouped(0.05, 20, TailSampleOptions{TotalSamples: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Groups) != 2 {
		t.Fatalf("groups = %d", len(out.Groups))
	}
	for g, res := range out.TailMap() {
		if len(res.Samples) != 20 {
			t.Fatalf("group %s samples = %d", g, len(res.Samples))
		}
	}
}

func TestQueryValidationErrors(t *testing.T) {
	e := lossEngine(t, 5, 8)
	if _, err := e.Query().SelectSum(expr.C("x")).MonteCarlo(10); err == nil {
		t.Fatal("no FROM must error")
	}
	if _, err := e.Query().From("losses", "").MonteCarlo(10); err == nil {
		t.Fatal("no aggregate must error")
	}
	if _, err := e.Query().From("losses", "a").From("means", "a").SelectCount().MonteCarlo(10); err == nil {
		t.Fatal("duplicate alias must error")
	}
	if _, err := e.Query().From("nope", "").SelectCount().MonteCarlo(10); err == nil {
		t.Fatal("unknown table must error")
	}
	// A fixed run needs at least one replicate: n = 0 must fail, not fall
	// through to the round driver's default sample cap.
	if _, err := e.Query().From("losses", "").SelectCount().MonteCarlo(0); err == nil || !strings.Contains(err.Error(), "n >= 1") {
		t.Fatalf("MonteCarlo(0) must error with need n >= 1, got %v", err)
	}
	if _, err := e.Query().From("losses", "").SelectCount().MonteCarloGrouped(0); err == nil || !strings.Contains(err.Error(), "n >= 1") {
		t.Fatalf("MonteCarloGrouped(0) must error with need n >= 1, got %v", err)
	}
	// Likewise a tail run needs l >= 1 conditioned samples, not the
	// adaptive driver's default chain cap.
	if _, err := e.Query().From("losses", "").SelectSum(expr.C("val")).TailSample(0.1, 0, TailSampleOptions{TotalSamples: 100}); err == nil || !strings.Contains(err.Error(), "l >= 1") {
		t.Fatalf("TailSample(0.1, 0) must error with need l >= 1, got %v", err)
	}
	if _, err := e.Query().From("losses", "").SelectSum(expr.C("val")).GroupBy(expr.C("cid")).TailSampleGrouped(0.1, 0, TailSampleOptions{TotalSamples: 100}); err == nil || !strings.Contains(err.Error(), "l >= 1") {
		t.Fatalf("TailSampleGrouped(0.1, 0) must error with need l >= 1, got %v", err)
	}
	// cid exists in both losses and means: ambiguous, and the error must
	// name the candidate aliases.
	_, err := e.Query().From("losses", "l").From("means", "m").
		Where(expr.B(expr.OpGt, expr.C("cid"), expr.F(0))).
		SelectCount().MonteCarlo(10)
	if err == nil {
		t.Fatal("ambiguous unqualified column must error")
	}
	if !strings.Contains(err.Error(), "l.cid") || !strings.Contains(err.Error(), "m.cid") {
		t.Fatalf("ambiguity error must name candidates, got: %v", err)
	}
	// val exists only in losses: unqualified reference resolves to l.val.
	if _, err := e.Query().From("losses", "l").From("means", "m").
		Where(expr.B(expr.OpEq, expr.C("l.cid"), expr.C("m.cid"))).
		Where(expr.B(expr.OpGt, expr.C("val"), expr.F(-1e12))).
		SelectCount().MonteCarlo(10); err != nil {
		t.Fatalf("unambiguous unqualified column must resolve: %v", err)
	}
}

func TestHistogram(t *testing.T) {
	d := newDistribution([]float64{1, 2, 2, 3, 9})
	edges, counts := d.Histogram(4)
	if len(edges) != 5 || len(counts) != 4 {
		t.Fatalf("histogram shape: %v %v", edges, counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("histogram total = %d", total)
	}
	if _, c := d.Histogram(0); c != nil {
		t.Fatal("0 bins must be nil")
	}
}

func TestFTableRelation(t *testing.T) {
	d := newDistribution([]float64{5, 5, 7})
	tbl := d.FTableRelation("ftable")
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if tbl.Row(0)[0].Float() != 5 || math.Abs(tbl.Row(0)[1].Float()-2.0/3) > 1e-12 {
		t.Fatalf("row = %v", tbl.Row(0))
	}
}
