package mcdbr

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlish"
	"repro/internal/storage"
	"repro/internal/types"
)

// ExecKind tags what an Exec call produced.
type ExecKind uint8

const (
	// ExecCreated: a CREATE TABLE ... FOR EACH statement defined a random
	// table.
	ExecCreated ExecKind = iota
	// ExecScalar: a deterministic single-aggregate query (e.g. over
	// FTABLE) produced a single number.
	ExecScalar
	// ExecTable: a deterministic multi-aggregate and/or GROUP BY query
	// produced a relation (group columns followed by aggregate columns).
	ExecTable
	// ExecDistribution: a single-aggregate WITH RESULTDISTRIBUTION query
	// without DOMAIN produced a Monte Carlo distribution.
	ExecDistribution
	// ExecTail: a DOMAIN ... QUANTILE query produced a tail distribution.
	ExecTail
	// ExecGroupedDistribution: a GROUP BY and/or multi-aggregate query
	// without DOMAIN produced per-group, per-aggregate distributions in a
	// single pass.
	ExecGroupedDistribution
	// ExecGroupedTail: a GROUP BY ... DOMAIN query produced one tail
	// distribution per group (paper App. A: g conditioned runs over one
	// shared plan).
	ExecGroupedTail
	// ExecExplained: an EXPLAIN statement produced a plan description
	// without executing the query.
	ExecExplained
)

// String names the result kind (used by the HTTP serving layer).
func (k ExecKind) String() string {
	switch k {
	case ExecCreated:
		return "created"
	case ExecScalar:
		return "scalar"
	case ExecTable:
		return "table"
	case ExecDistribution:
		return "distribution"
	case ExecTail:
		return "tail"
	case ExecGroupedDistribution:
		return "grouped_distribution"
	case ExecGroupedTail:
		return "grouped_tail"
	case ExecExplained:
		return "explained"
	default:
		return fmt.Sprintf("ExecKind(%d)", uint8(k))
	}
}

// ExecResult is the outcome of Engine.Exec.
type ExecResult struct {
	Kind   ExecKind
	Scalar float64
	// Table holds the relation produced by a deterministic grouped or
	// multi-aggregate query (ExecTable).
	Table *storage.Table
	Dist  *Distribution
	Tail  *TailResult
	// Grouped holds the per-group, per-aggregate distributions of an
	// ExecGroupedDistribution result.
	Grouped *GroupedDistribution
	// GroupedTail holds the ordered per-group tails of an ExecGroupedTail
	// result.
	GroupedTail *GroupedTail
	// GroupDists and GroupTails are the legacy map views, populated for
	// single-aggregate grouped queries.
	GroupDists map[string]*Distribution
	GroupTails map[string]*TailResult
	// Adaptive reports how an adaptive (UNTIL ERROR) or progressive run
	// stopped: replicates used, rounds, and per-aggregate confidence
	// intervals. nil for plain fixed-N execution.
	Adaptive *AdaptiveReport
	Explain  *Explain
}

// Exec parses and executes one SQL-ish statement (the paper's §2 surface
// syntax). Tail-sampling parameters use the Appendix C defaults; use
// ExecWithOptions to override them.
func (e *Engine) Exec(sql string) (*ExecResult, error) {
	return e.ExecWithOptions(sql, TailSampleOptions{})
}

// PanicError is a panic recovered at an engine entry point, surfaced as
// an error. Callers (e.g. the HTTP serving layer) can errors.As on it to
// distinguish engine faults from bad-input errors.
type PanicError struct {
	// Op names the entry point that recovered the panic.
	Op string
	// Value is the recovered panic value.
	Value any
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("mcdbr: %s: internal panic: %v", p.Op, p.Value)
}

// recoverToError converts a panic escaping a public entry point into a
// *PanicError, so one bad query (a type-confused expression, VG misuse,
// or a panicking user VG function) cannot crash a process serving other
// queries. Parallel execution installs the same net in its worker
// goroutines, where a panic would otherwise be fatal regardless of
// deferred recovery on the calling goroutine.
func recoverToError(op string, err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Op: op, Value: r}
	}
}

// ExecWithOptions is Exec with explicit tail-sampling options.
func (e *Engine) ExecWithOptions(sql string, opts TailSampleOptions) (res *ExecResult, err error) {
	defer recoverToError("Exec", &err)
	stmt, err := sqlish.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqlish.CreateRandomTable:
		if err := e.execCreate(s); err != nil {
			return nil, err
		}
		return &ExecResult{Kind: ExecCreated}, nil
	case *sqlish.ExplainStmt:
		x, err := e.explainSelect(s.Stmt)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Kind: ExecExplained, Explain: x}, nil
	case *sqlish.SelectStmt:
		if !s.With {
			return e.execScalar(s)
		}
		c, err := e.compileSelect(s)
		if err != nil {
			return nil, err
		}
		return e.runSelectCompiled(c, s, opts, runParams{
			seed:     e.seed,
			workers:  e.parallelism,
			n:        s.MCReps,
			maxBytes: e.maxQueryBytes,
		})
	default:
		return nil, fmt.Errorf("mcdbr: unsupported statement %T", stmt)
	}
}

// execCreate turns the parsed CREATE TABLE ... FOR EACH into a RandomTable
// definition.
func (e *Engine) execCreate(s *sqlish.CreateRandomTable) error {
	gen, ok := e.vgs.Lookup(s.VGName)
	if !ok {
		return fmt.Errorf("mcdbr: VG function %q not registered", s.VGName)
	}
	nOut := len(gen.OutKinds())
	var cols []RandomCol
	colIdx := 0
	takeName := func() (string, error) {
		if colIdx >= len(s.Cols) {
			return "", fmt.Errorf("mcdbr: CREATE TABLE %s: more select items than columns", s.Name)
		}
		n := s.Cols[colIdx]
		colIdx++
		return n, nil
	}
	for _, item := range s.SelectItems {
		switch {
		case strings.HasSuffix(item, ".*"):
			alias := strings.TrimSuffix(item, ".*")
			if !strings.EqualFold(alias, s.VGAlias) {
				return fmt.Errorf("mcdbr: CREATE TABLE %s: %s.* does not match VG alias %s", s.Name, alias, s.VGAlias)
			}
			for o := 0; o < nOut; o++ {
				name, err := takeName()
				if err != nil {
					return err
				}
				cols = append(cols, RandomCol{Name: name, VGOut: o})
			}
		case strings.Contains(item, "."):
			parts := strings.SplitN(item, ".", 2)
			name, err := takeName()
			if err != nil {
				return err
			}
			if strings.EqualFold(parts[0], s.VGAlias) {
				// A single VG output referenced by position: myVal.valueN
				// (1-based), or the bare myVal.value for the first output.
				ref := strings.ToLower(parts[1])
				out := 0
				switch {
				case ref == "value":
				case strings.HasPrefix(ref, "value"):
					n, err := strconv.Atoi(ref[len("value"):])
					if err != nil {
						return fmt.Errorf("mcdbr: CREATE TABLE %s: unknown VG output reference %s (use %s.value1..value%d or %s.*)",
							s.Name, item, s.VGAlias, nOut, s.VGAlias)
					}
					if n < 1 || n > nOut {
						return fmt.Errorf("mcdbr: CREATE TABLE %s: %s references VG output %d, but %s has %d output(s)",
							s.Name, item, n, s.VGName, nOut)
					}
					out = n - 1
				default:
					return fmt.Errorf("mcdbr: CREATE TABLE %s: unknown VG output reference %s (use %s.value1..value%d or %s.*)",
						s.Name, item, s.VGAlias, nOut, s.VGAlias)
				}
				cols = append(cols, RandomCol{Name: name, VGOut: out})
			} else {
				cols = append(cols, RandomCol{Name: name, FromParam: parts[1]})
			}
		default:
			name, err := takeName()
			if err != nil {
				return err
			}
			cols = append(cols, RandomCol{Name: name, FromParam: item})
		}
	}
	if colIdx != len(s.Cols) {
		return fmt.Errorf("mcdbr: CREATE TABLE %s: %d columns declared, %d produced", s.Name, len(s.Cols), colIdx)
	}
	return e.DefineRandomTable(RandomTable{
		Name:       s.Name,
		ParamTable: s.ParamTable,
		VG:         s.VGName,
		VGParams:   s.VGParams,
		Columns:    cols,
	})
}

// scalarAccum accumulates one deterministic aggregate over rows.
type scalarAccum struct {
	sum  float64
	n    int
	rows int
	best float64
}

func (a *scalarAccum) value(agg string, hasExpr bool) float64 {
	switch agg {
	case "SUM":
		return a.sum
	case "COUNT":
		if !hasExpr {
			return float64(a.rows)
		}
		return float64(a.n)
	case "AVG":
		if a.n == 0 {
			return math.NaN()
		}
		return a.sum / float64(a.n)
	default: // MIN, MAX
		return a.best
	}
}

// execScalar evaluates deterministic aggregates over a single ordinary
// table — the paper's follow-up queries such as SELECT MIN(totalLoss)
// FROM FTABLE — now with multi-item select lists, GROUP BY over arbitrary
// deterministic expressions, and HAVING. A single ungrouped aggregate
// yields ExecScalar; anything else yields an ExecTable relation (group
// columns followed by aggregate columns, sorted by group key).
func (e *Engine) execScalar(s *sqlish.SelectStmt) (*ExecResult, error) {
	if len(s.Froms) != 1 {
		return nil, fmt.Errorf("mcdbr: deterministic aggregates support exactly one table, got %d", len(s.Froms))
	}
	if _, isRandom := e.randomDef(s.Froms[0].Table); isRandom {
		return nil, fmt.Errorf("mcdbr: query over random table %q needs WITH RESULTDISTRIBUTION", s.Froms[0].Table)
	}
	t, ok := e.cat.Get(s.Froms[0].Table)
	if !ok {
		return nil, fmt.Errorf("mcdbr: table %q not registered", s.Froms[0].Table)
	}
	rows, err := e.filterRows(t, s.Where)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	groupExprs := make([]*expr.Compiled, len(s.GroupBy))
	for i, g := range s.GroupBy {
		if groupExprs[i], err = expr.Compile(g, schema); err != nil {
			return nil, fmt.Errorf("mcdbr: GROUP BY expression %s: %w", g, err)
		}
	}
	aggExprs := make([]*expr.Compiled, len(s.Items))
	for i, it := range s.Items {
		if it.Expr == nil {
			if it.Agg != "COUNT" {
				return nil, fmt.Errorf("mcdbr: %s requires an aggregate expression", it.Agg)
			}
			continue
		}
		if aggExprs[i], err = expr.Compile(it.Expr, schema); err != nil {
			return nil, fmt.Errorf("mcdbr: aggregate %s: %w", it, err)
		}
	}
	type group struct {
		key    types.Row
		accums []scalarAccum
	}
	var groups []group
	index := map[uint64][]int{}
	findGroup := func(key types.Row) *group {
		h := key.Hash()
		for _, gi := range index[h] {
			if groups[gi].key.Equal(key) {
				return &groups[gi]
			}
		}
		g := group{key: key.Clone(), accums: make([]scalarAccum, len(s.Items))}
		for i := range g.accums {
			g.accums[i].best = math.NaN()
		}
		groups = append(groups, g)
		index[h] = append(index[h], len(groups)-1)
		return &groups[len(groups)-1]
	}
	if len(groupExprs) == 0 {
		findGroup(types.Row{})
	}
	keyBuf := make(types.Row, len(groupExprs))
	for _, r := range rows {
		for i, ge := range groupExprs {
			keyBuf[i] = ge.Eval(r)
		}
		g := findGroup(keyBuf)
		for i, it := range s.Items {
			acc := &g.accums[i]
			acc.rows++
			if it.Expr == nil {
				continue
			}
			v := aggExprs[i].Eval(r)
			if v.IsNull() {
				continue
			}
			f, ok := v.AsFloat()
			if !ok {
				return nil, fmt.Errorf("mcdbr: aggregate over non-numeric value %s", v.Kind())
			}
			acc.sum += f
			acc.n++
			switch it.Agg {
			case "MIN":
				if math.IsNaN(acc.best) || f < acc.best {
					acc.best = f
				}
			case "MAX":
				if math.IsNaN(acc.best) || f > acc.best {
					acc.best = f
				}
			}
		}
	}
	sort.SliceStable(groups, func(i, j int) bool { return exec.LessRow(groups[i].key, groups[j].key) })

	// Output schema: group columns (named after the expression), then
	// aggregate columns, disambiguated exactly like exec.NewAggregate.
	outCols := make([]types.Column, 0, len(s.GroupBy)+len(s.Items))
	uniq := exec.UniqueNamer()
	for _, g := range s.GroupBy {
		kind := types.KindFloat
		name := g.String()
		if c, ok := g.(*expr.Col); ok {
			name = c.Name
			if i := strings.LastIndexByte(name, '.'); i >= 0 {
				name = name[i+1:]
			}
			if j := schema.Lookup(c.Name); j >= 0 {
				kind = schema.Col(j).Kind
			}
		}
		outCols = append(outCols, types.Column{Name: uniq(name), Kind: kind})
	}
	for _, it := range s.Items {
		name := it.Alias
		if name == "" {
			name = it.String()
		}
		outCols = append(outCols, types.Column{Name: uniq(name), Kind: types.KindFloat})
	}
	outSchema := types.NewSchema(outCols...)
	var having *expr.Compiled
	if s.Having != nil {
		if having, err = expr.Compile(s.Having, outSchema); err != nil {
			return nil, fmt.Errorf("mcdbr: HAVING may reference grouping columns and aggregate aliases %s: %w", outSchema, err)
		}
	}
	out := storage.NewTable("result", outSchema)
	for gi := range groups {
		g := &groups[gi]
		row := make(types.Row, 0, outSchema.Len())
		row = append(row, g.key...)
		for i, it := range s.Items {
			row = append(row, types.NewFloat(g.accums[i].value(it.Agg, it.Expr != nil)))
		}
		if having != nil && !having.EvalBool(row) {
			continue
		}
		out.MustAppend(row)
	}
	if len(s.GroupBy) == 0 && len(s.Items) == 1 && s.Having == nil {
		return &ExecResult{Kind: ExecScalar, Scalar: out.Row(0)[0].Float()}, nil
	}
	return &ExecResult{Kind: ExecTable, Table: out}, nil
}

func (e *Engine) filterRows(t *storage.Table, where expr.Expr) ([]types.Row, error) {
	if where == nil {
		return t.Rows(), nil
	}
	c, err := expr.Compile(where, t.Schema())
	if err != nil {
		return nil, err
	}
	var out []types.Row
	for _, r := range t.Rows() {
		if c.EvalBool(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// selectBuilder turns a parsed SELECT into a QueryBuilder; shared by Exec,
// EXPLAIN, and Prepare.
func (e *Engine) selectBuilder(s *sqlish.SelectStmt) (*QueryBuilder, error) {
	qb := e.Query()
	for _, f := range s.Froms {
		qb.From(f.Table, f.Alias)
	}
	if s.Where != nil {
		qb.Where(s.Where)
	}
	for _, it := range s.Items {
		switch it.Agg {
		case "SUM":
			qb.SelectSumAs(it.Expr, it.Alias)
		case "AVG":
			qb.SelectAvgAs(it.Expr, it.Alias)
		case "COUNT":
			// The Monte Carlo layers count tuples passing the final
			// predicate; a COUNT(expr) argument is ignored, as it always
			// was on this path.
			qb.SelectCountAs(it.Alias)
		default:
			return nil, fmt.Errorf("mcdbr: aggregate %s is not supported with RESULTDISTRIBUTION (use SUM, COUNT, or AVG)", it.Agg)
		}
	}
	qb.GroupBy(s.GroupBy...)
	if s.Having != nil {
		qb.Having(s.Having)
	}
	if s.Adaptive != nil {
		qb.Until(s.Adaptive.TargetRelError, s.Adaptive.Confidence, s.Adaptive.MaxSamples)
	}
	return qb, nil
}

// compileSelect plans a parsed SELECT through the builder path.
func (e *Engine) compileSelect(s *sqlish.SelectStmt) (*compiled, error) {
	qb, err := e.selectBuilder(s)
	if err != nil {
		return nil, err
	}
	return qb.compile()
}

// domainP maps the DOMAIN clause to the looper's upper/lower tail
// probability.
func domainP(d *sqlish.Domain) float64 {
	if d.Lower {
		return d.Quantile
	}
	return 1 - d.Quantile
}

// validateSelect rejects statement/plan combinations that can never
// execute — multi-aggregate DOMAIN conditioning, HAVING under tail
// sampling, FREQUENCYTABLE on grouped or multi-aggregate queries, and a
// DOMAIN name that does not match the aggregate alias. Prepare runs it
// too, so an impossible statement fails at preparation instead of
// caching a plan whose every Run errors.
func validateSelect(c *compiled, s *sqlish.SelectStmt) error {
	grouped := c.grouped()
	multi := len(c.agg.Aggs) > 1
	if s.FreqTable != "" && (grouped || multi) {
		return fmt.Errorf("mcdbr: FREQUENCYTABLE needs a single ungrouped aggregate; the query has %d aggregates and %d grouping expressions", len(c.agg.Aggs), len(c.agg.GroupBy))
	}
	if s.Domain != nil {
		if multi {
			return fmt.Errorf("mcdbr: DOMAIN tail sampling conditions on a single aggregate; the query has %d", len(c.agg.Aggs))
		}
		if c.agg.Having != nil {
			return fmt.Errorf("mcdbr: HAVING is not supported with DOMAIN tail sampling; drop the DOMAIN clause or the HAVING clause")
		}
		if alias := s.Items[0].Alias; alias != "" && !strings.EqualFold(s.Domain.Name, alias) {
			return fmt.Errorf("mcdbr: DOMAIN references %q but the aggregate is named %q", s.Domain.Name, alias)
		}
	}
	return nil
}

// runSelectCompiled executes an already-compiled WITH RESULTDISTRIBUTION
// statement through one of two drivers: runTails for DOMAIN tail sampling
// (one conditioned Gibbs chain per group; an ungrouped query is the single
// group), runPlain for everything else (single-pass grouped when the query
// has GROUP BY or several aggregates). Each driver picks its own schedule
// from the stopping rule — the statement's UNTIL clause or a per-run
// override — and the run's progress callback. It is the shared execution
// path of Exec and PreparedQuery.Run; the runParams knobs are per-run so
// prepared queries can override them.
func (e *Engine) runSelectCompiled(c *compiled, s *sqlish.SelectStmt, opts TailSampleOptions, rp runParams) (*ExecResult, error) {
	if err := validateSelect(c, s); err != nil {
		return nil, err
	}
	grouped := c.grouped()
	multi := len(c.agg.Aggs) > 1
	rule := rp.stopRule(c)
	if rule != nil {
		// Deadline degradation is an adaptive-only contract: fixed-N runs
		// (rule == nil, including the progressive fixed-N streaming shape,
		// which never sets rule) stay strict and error on deadline.
		rule.DegradeOnDeadline = rp.degrade
	}
	if s.Domain != nil {
		opts.Lower = s.Domain.Lower
		gt, report, err := e.runTails(c, rp, rule, domainP(s.Domain), opts)
		if err != nil {
			return nil, err
		}
		if grouped {
			return &ExecResult{Kind: ExecGroupedTail, GroupedTail: gt, GroupTails: gt.TailMap(), Adaptive: report}, nil
		}
		tr := gt.Groups[0].Tail
		e.registerFTable(s, &tr.Distribution)
		return &ExecResult{Kind: ExecTail, Tail: tr, Adaptive: report}, nil
	}
	gd, report, err := e.runPlain(c, rp, rule)
	if err != nil {
		return nil, err
	}
	if grouped || multi {
		res := &ExecResult{Kind: ExecGroupedDistribution, Grouped: gd, Adaptive: report}
		if !multi {
			res.GroupDists = gd.DistMap()
		}
		return res, nil
	}
	d := gd.Groups[0].Dists[0]
	e.registerFTable(s, d)
	return &ExecResult{Kind: ExecDistribution, Dist: d, Adaptive: report}, nil
}

// registerFTable is the explicit post-execution step that materializes a
// FREQUENCYTABLE clause as the catalog table FTABLE(<name>, FRAC). It runs
// only after the query has fully completed (never mid-query) and swaps the
// table in atomically under the engine lock: a concurrent query sees the
// previous FTABLE or the new one, never a half-built relation. The DDL
// epoch is bumped only when the FTABLE schema changes (a different
// aggregate name), so repeated runs of the same query do not invalidate
// cached plans.
func (e *Engine) registerFTable(s *sqlish.SelectStmt, d *Distribution) {
	if s.FreqTable == "" {
		return
	}
	t := storage.NewTable("ftable", types.NewSchema(
		types.Column{Name: s.FreqTable, Kind: types.KindFloat},
		types.Column{Name: "frac", Kind: types.KindFloat},
	))
	for i, v := range d.FTable.Values {
		t.MustAppend(types.Row{types.NewFloat(v), types.NewFloat(d.FTable.Fracs[i])})
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if old, ok := e.cat.Get("ftable"); !ok || !sameSchema(old.Schema(), t.Schema()) {
		e.ddlEpoch++
	}
	// The data epoch always advances: cached plans stay valid across
	// same-schema re-registrations, but materialized prefixes over FTABLE
	// embed its contents and must be recomputed.
	e.dataEpoch++
	e.cat.Put(t)
}

// sameSchema reports whether two schemas have identical column names and
// kinds.
func sameSchema(a, b *types.Schema) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ca, cb := a.Col(i), b.Col(i)
		if !strings.EqualFold(ca.Name, cb.Name) || ca.Kind != cb.Kind {
			return false
		}
	}
	return true
}
