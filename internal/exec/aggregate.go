// First-class aggregation. MCDB-R queries are aggregation queries; until
// ISSUE 5 the aggregate lived outside the plan (a single gibbs.AggKind
// carried beside the physical tree) and GROUP BY was an ad-hoc top-layer
// loop re-running the whole pipeline once per group. This file makes
// aggregation a physical operator: Aggregate is the plan root, carrying
// the grouping expressions, the (multi-item) aggregate list, and the
// optional HAVING predicate; AggEval is its single-pass evaluator — the
// plan runs once, tuples are partitioned by their deterministic group key
// once, and every Monte Carlo repetition produces one vector of aggregate
// values per group in a single sweep over the tuples.

package exec

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bundle"
	"repro/internal/expr"
	"repro/internal/types"
)

// AggKind enumerates the aggregates the Monte Carlo layers maintain
// incrementally (moved here from internal/gibbs: the looper now consumes
// aggregate specs instead of owning them).
type AggKind uint8

const (
	// AggSum is SUM(expr).
	AggSum AggKind = iota
	// AggCount is COUNT(*) over tuples passing the final predicate.
	AggCount
	// AggAvg is AVG(expr).
	AggAvg
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// AggSpec is one item of an aggregation select list.
type AggSpec struct {
	// Kind is the aggregate operation.
	Kind AggKind
	// Expr is the aggregated expression; nil for COUNT(*).
	Expr expr.Expr
	// Name is the output column name (the SQL alias, or the rendered
	// aggregate when none was given).
	Name string
}

// String renders the spec as it appears in EXPLAIN ("SUM(val) AS loss").
func (s AggSpec) String() string {
	body := "*"
	if s.Expr != nil {
		body = s.Expr.String()
	}
	out := fmt.Sprintf("%s(%s)", s.Kind, body)
	if s.Name != "" && s.Name != out {
		out += " AS " + s.Name
	}
	return out
}

// AggState is the incremental state of one aggregate for one DB version:
// a running sum and a contribution count. SUM reads Sum, COUNT reads
// Count, AVG reads Sum/Count. The Gibbs looper delta-maintains these
// fields during rejection sampling, which is why MIN/MAX (not expressible
// as a reversible delta) stay outside the Monte Carlo layers.
type AggState struct {
	Sum   float64
	Count int64
}

// Add folds one tuple contribution into the state.
func (a *AggState) Add(sum float64, count int64) {
	a.Sum += sum
	a.Count += count
}

// Value reads the aggregate under the given kind. An empty AVG yields
// -Inf: in the looper's cutoff comparisons an empty average can never
// beat a threshold, and result-building layers reject non-finite samples
// with a descriptive error.
func (a AggState) Value(k AggKind) float64 {
	switch k {
	case AggSum:
		return a.Sum
	case AggCount:
		return float64(a.Count)
	default: // AVG
		if a.Count == 0 {
			return math.Inf(-1)
		}
		return a.Sum / float64(a.Count)
	}
}

// Contribution evaluates one aggregate's contribution of a row that
// already passed presence and final-predicate checks, mirroring the Gibbs
// looper's accumulation exactly (NULLs are skipped per SQL semantics;
// sign is -1 for lower-tail conditioning, +1 otherwise).
func (s AggSpec) Contribution(compiled *expr.Compiled, row types.Row, sign float64) (float64, int64, error) {
	if s.Kind == AggCount {
		return 0, 1, nil
	}
	v := compiled.Eval(row)
	if v.IsNull() {
		return 0, 0, nil // SQL aggregates ignore NULLs
	}
	f, ok := v.AsFloat()
	if !ok {
		return 0, 0, fmt.Errorf("exec: aggregate expression %s produced %s, need numeric", s, v.Kind())
	}
	return sign * f, 1, nil
}

// Aggregate is the plan-root physical operator of an aggregation query.
// Open passes its child's Gibbs-tuple stream through unchanged (aggregate
// values vary per DB version, so they cannot be materialized as tuples);
// consumers — gibbs.MonteCarloGrouped for single-pass grouped Monte
// Carlo, the Gibbs looper for tail sampling — are the true sinks: they
// drain the stream once and evaluate the aggregates per version through
// OpenEval. Aggregate never appears below another operator.
type Aggregate struct {
	Child Node
	// GroupBy are the grouping expressions; they must evaluate over
	// deterministic attributes only (paper App. A). Empty means one
	// global group.
	GroupBy []expr.Expr
	// GroupNames name the grouping output columns.
	GroupNames []string
	// Aggs is the aggregate list; at least one item.
	Aggs []AggSpec
	// Having, when non-nil, is a predicate over the output row (group
	// columns followed by aggregate columns) evaluated once per group per
	// Monte Carlo repetition; repetitions where it fails are excluded
	// from that group's result distribution.
	Having expr.Expr

	schema *types.Schema
}

// NewAggregate builds the operator, validating the grouping and aggregate
// expressions against the child schema and constructing the output schema
// (group columns, then aggregate columns; duplicate names are
// disambiguated with a positional suffix).
func NewAggregate(child Node, groupBy []expr.Expr, groupNames []string, aggs []AggSpec, having expr.Expr) (*Aggregate, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("exec: Aggregate needs at least one aggregate")
	}
	if len(groupNames) != len(groupBy) {
		return nil, fmt.Errorf("exec: Aggregate got %d group names for %d grouping expressions", len(groupNames), len(groupBy))
	}
	for i, g := range groupBy {
		if _, err := expr.Compile(g, child.Schema()); err != nil {
			return nil, fmt.Errorf("exec: GROUP BY expression %d (%s): %w", i+1, g, err)
		}
	}
	for _, a := range aggs {
		if a.Expr != nil {
			if _, err := expr.Compile(a.Expr, child.Schema()); err != nil {
				return nil, fmt.Errorf("exec: aggregate %s: %w", a, err)
			}
		} else if a.Kind != AggCount {
			return nil, fmt.Errorf("exec: %s requires an aggregate expression", a.Kind)
		}
	}
	agg := &Aggregate{Child: child, GroupBy: groupBy, GroupNames: groupNames, Aggs: aggs, Having: having}
	cols := make([]types.Column, 0, len(groupBy)+len(aggs))
	uniq := UniqueNamer()
	for i, g := range groupBy {
		kind := types.KindFloat
		if c, ok := g.(*expr.Col); ok {
			if j := child.Schema().Lookup(c.Name); j >= 0 {
				kind = child.Schema().Col(j).Kind
			}
		}
		cols = append(cols, types.Column{Name: uniq(groupNames[i]), Kind: kind})
	}
	for _, a := range aggs {
		cols = append(cols, types.Column{Name: uniq(a.Name), Kind: types.KindFloat})
	}
	agg.schema = types.NewSchema(cols...)
	if having != nil {
		if _, err := expr.Compile(having, agg.schema); err != nil {
			return nil, fmt.Errorf("exec: HAVING may reference grouping columns and aggregate aliases %s: %w", agg.schema, err)
		}
	}
	return agg, nil
}

// UniqueNamer returns a closure that disambiguates output column names:
// the first use of a name keeps it, later collisions get an increasing
// "_N" suffix, re-probed until genuinely unused (a user alias may occupy
// the suffixed form too). Shared with the deterministic scalar path in
// mcdbr so both sides name result columns identically.
func UniqueNamer() func(string) string {
	seen := map[string]bool{}
	return func(name string) string {
		base := name
		for n := 2; seen[strings.ToLower(name)]; n++ {
			name = fmt.Sprintf("%s_%d", base, n)
		}
		seen[strings.ToLower(name)] = true
		return name
	}
}

// Schema implements Node: the aggregation output schema (group columns
// followed by aggregate columns).
func (a *Aggregate) Schema() *types.Schema { return a.schema }

// AggColNames returns the disambiguated output column names of the
// aggregate list (the schema columns after the grouping columns) — use
// these, not AggSpec.Name, when labeling results.
func (a *Aggregate) AggColNames() []string {
	out := make([]string, len(a.Aggs))
	for i := range a.Aggs {
		out[i] = a.schema.Col(len(a.GroupBy) + i).Name
	}
	return out
}

// GroupColNames returns the disambiguated grouping output column names
// (the leading schema columns) — the counterpart of AggColNames for the
// group key.
func (a *Aggregate) GroupColNames() []string {
	out := make([]string, len(a.GroupBy))
	for i := range a.GroupBy {
		out[i] = a.schema.Col(i).Name
	}
	return out
}

// Deterministic implements Node.
func (a *Aggregate) Deterministic() bool { return a.Child.Deterministic() }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

func (a *Aggregate) String() string {
	parts := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		parts[i] = s.String()
	}
	out := "Aggregate[" + strings.Join(parts, ", ")
	if len(a.GroupBy) > 0 {
		keys := make([]string, len(a.GroupBy))
		for i, g := range a.GroupBy {
			keys[i] = g.String()
		}
		out += "; group by " + strings.Join(keys, ", ")
	}
	if a.Having != nil {
		out += "; having " + a.Having.String()
	}
	return out + "]"
}

// Open implements Node: the child's tuple stream passes through unchanged.
func (a *Aggregate) Open(ws *Workspace) (Iterator, error) {
	return a.Child.Open(ws)
}

// aggGroup is one group's evaluation state: the key, the contributions of
// purely deterministic member tuples (computed once), and the member
// tuples with random lineage (re-evaluated per DB version).
type aggGroup struct {
	key  types.Row
	base []AggState
	rand []*bundle.Tuple
	// outRow is the group's HAVING scratch row (group columns followed by
	// aggregate columns), allocated once with the key prefix prefilled so
	// the include step only overwrites the aggregate slots — keeping
	// EvalVersion and EvalWindow at 0 allocs/version. Nil without a HAVING
	// clause.
	outRow types.Row
}

// AggEval is the single-pass grouped-aggregation evaluator over one plan
// run's tuple stream. Build it once per run with OpenEval; EvalVersion then
// produces the vector of aggregate values for every group for one DB
// version in a single sweep over the (partitioned) tuples. Scratch rows
// and per-group state are allocated once, in contiguous backing arrays,
// and reused across versions — the evaluator adds no per-version
// allocation to the Monte Carlo hot path.
type AggEval struct {
	agg      *Aggregate
	final    *expr.Compiled
	aggExprs []*expr.Compiled
	having   *expr.Compiled
	groups   []aggGroup
	buf      types.Row  // tuple evaluation scratch
	states   []AggState // per-version scratch, reset per group

	// Window-major evaluation (DESIGN.md §13): the child schema kernels
	// are lowered against, whether the run's workspace allows kernels, and
	// the lazily built per-run kernel/scratch state. winBad latches a
	// failed kernel lowering so EvalWindow doesn't retry it per call.
	childSchema *types.Schema
	kernelsOn   bool
	win         *winEval
	winBad      bool
}

// groupKeySlots collects the schema slots the grouping expressions read;
// OpenEval uses them to reject tuples whose group key would read a random
// (VG-generated) slot — grouping columns must be deterministic (paper
// App. A).
func groupKeySlots(agg *Aggregate, schema *types.Schema) ([]int, error) {
	var slots []int
	for _, g := range agg.GroupBy {
		for _, name := range expr.Columns(g) {
			j := schema.Lookup(name)
			if j < 0 {
				return nil, fmt.Errorf("exec: GROUP BY column %q not in %s", name, schema)
			}
			slots = append(slots, j)
		}
	}
	return slots, nil
}

// OpenEval builds the evaluator by streaming one run of the child plan
// through the batch pipeline: deterministic member tuples fold into their
// group's base state as they pass, and tuples with random lineage are
// retained (Workspace.Retain) for per-version re-evaluation — the only
// part of the stream the evaluator holds on to. final is the Gibbs-looper
// final predicate (paper App. A) applied to every tuple before
// aggregation; nil means no predicate. When the query has no GROUP BY the
// evaluator always exposes exactly one group (with an empty key), even
// over an empty tuple stream.
func (a *Aggregate) OpenEval(ws *Workspace, final expr.Expr) (*AggEval, error) {
	schema := a.Child.Schema()
	ev := &AggEval{agg: a, aggExprs: make([]*expr.Compiled, len(a.Aggs)),
		childSchema: schema, kernelsOn: !ws.DisableKernels}
	var err error
	if final != nil {
		if ev.final, err = expr.Compile(final, schema); err != nil {
			return nil, fmt.Errorf("exec: final predicate: %w", err)
		}
	}
	for i, s := range a.Aggs {
		if s.Expr != nil {
			if ev.aggExprs[i], err = expr.Compile(s.Expr, schema); err != nil {
				return nil, fmt.Errorf("exec: aggregate %s: %w", s, err)
			}
		}
	}
	if a.Having != nil {
		if ev.having, err = expr.Compile(a.Having, a.schema); err != nil {
			return nil, err
		}
	}
	groupExprs := make([]*expr.Compiled, len(a.GroupBy))
	for i, g := range a.GroupBy {
		if groupExprs[i], err = expr.Compile(g, schema); err != nil {
			return nil, fmt.Errorf("exec: GROUP BY expression %s: %w", g, err)
		}
	}
	keySlots, err := groupKeySlots(a, schema)
	if err != nil {
		return nil, err
	}
	ev.buf = make(types.Row, schema.Len())

	// Partition the stream: group keys are deterministic, so the
	// tuple->group mapping is computed exactly once per plan run.
	index := map[uint64][]int{} // key hash -> group indexes (collision list)
	findGroup := func(key types.Row) *aggGroup {
		h := key.Hash()
		for _, gi := range index[h] {
			if ev.groups[gi].key.Equal(key) {
				return &ev.groups[gi]
			}
		}
		ev.groups = append(ev.groups, aggGroup{key: key.Clone(), base: make([]AggState, len(a.Aggs))})
		index[h] = append(index[h], len(ev.groups)-1)
		return &ev.groups[len(ev.groups)-1]
	}
	if len(a.GroupBy) == 0 {
		findGroup(types.Row{})
	}
	keyBuf := make(types.Row, len(groupExprs))
	it, err := a.Child.Open(ws)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	durable := isDurable(it)
	for {
		if err := ws.checkBudget(); err != nil {
			return nil, err
		}
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for _, tu := range b.Tuples {
			for _, slot := range keySlots {
				for _, r := range tu.Rand {
					if r.Slot == slot {
						return nil, fmt.Errorf("exec: GROUP BY reads the VG-generated attribute %q; grouping columns must be deterministic", schema.Col(slot).Name)
					}
				}
			}
			for i, ge := range groupExprs {
				keyBuf[i] = ge.Eval(tu.Det)
			}
			g := findGroup(keyBuf)
			if tu.IsRandom() {
				if !durable {
					tu = ws.Retain(tu)
				}
				g.rand = append(g.rand, tu)
				continue
			}
			if err := ev.contribute(tu.Det, g.base); err != nil {
				return nil, err
			}
		}
	}
	// Deterministic group order for every consumer: sort by key.
	sort.SliceStable(ev.groups, func(i, j int) bool {
		return LessRow(ev.groups[i].key, ev.groups[j].key)
	})
	if a.Having != nil {
		nk := len(a.GroupBy)
		for g := range ev.groups {
			row := make(types.Row, nk+len(a.Aggs))
			copy(row, ev.groups[g].key)
			ev.groups[g].outRow = row
		}
	}
	ev.states = make([]AggState, len(a.Aggs))
	return ev, nil
}

// LessRow orders group keys lexicographically by Value.Compare; the
// canonical group order of every aggregation surface.
func LessRow(a, b types.Row) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if c := a[i].Compare(b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// StreamGroupKeys streams one run of the child plan and returns the
// distinct group keys in ascending order, without building the full
// evaluator — the cheap, bounded-memory discovery pass of per-group tail
// sampling (only the distinct keys are retained, never the tuples). It
// applies the same validation as OpenEval (unknown columns, random
// grouping slots). Ungrouped queries yield one empty key.
func (a *Aggregate) StreamGroupKeys(ws *Workspace) ([]types.Row, error) {
	schema := a.Child.Schema()
	if len(a.GroupBy) == 0 {
		return []types.Row{{}}, nil
	}
	groupExprs := make([]*expr.Compiled, len(a.GroupBy))
	for i, g := range a.GroupBy {
		c, err := expr.Compile(g, schema)
		if err != nil {
			return nil, fmt.Errorf("exec: GROUP BY expression %s: %w", g, err)
		}
		groupExprs[i] = c
	}
	keySlots, err := groupKeySlots(a, schema)
	if err != nil {
		return nil, err
	}
	var keys []types.Row
	index := map[uint64][]int{}
	keyBuf := make(types.Row, len(groupExprs))
	it, err := a.Child.Open(ws)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	for {
		if err := ws.checkBudget(); err != nil {
			return nil, err
		}
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for _, tu := range b.Tuples {
			for _, slot := range keySlots {
				for _, r := range tu.Rand {
					if r.Slot == slot {
						return nil, fmt.Errorf("exec: GROUP BY reads the VG-generated attribute %q; grouping columns must be deterministic", schema.Col(slot).Name)
					}
				}
			}
			for i, ge := range groupExprs {
				keyBuf[i] = ge.Eval(tu.Det)
			}
			h := keyBuf.Hash()
			known := false
			for _, ki := range index[h] {
				if keys[ki].Equal(keyBuf) {
					known = true
					break
				}
			}
			if !known {
				keys = append(keys, keyBuf.Clone())
				index[h] = append(index[h], len(keys)-1)
			}
		}
	}
	sort.SliceStable(keys, func(i, j int) bool { return LessRow(keys[i], keys[j]) })
	return keys, nil
}

// contribute folds one present row (past presence and final-predicate
// checks) into a per-aggregate state vector, in select-list order.
func (ev *AggEval) contribute(row types.Row, states []AggState) error {
	if ev.final != nil && !ev.final.EvalBool(row) {
		return nil
	}
	for i, spec := range ev.agg.Aggs {
		s, c, err := spec.Contribution(ev.aggExprs[i], row, 1)
		if err != nil {
			return err
		}
		states[i].Add(s, c)
	}
	return nil
}

// NumGroups returns the number of groups discovered in the stream.
func (ev *AggEval) NumGroups() int { return len(ev.groups) }

// Key returns group g's key values (empty for ungrouped queries).
func (ev *AggEval) Key(g int) types.Row { return ev.groups[g].key }

// EvalVersion computes the aggregate vector of every group for one DB
// version in a single pass: out[g][a] is aggregate a of group g.
// include[g] reports the HAVING outcome per group (always true without a
// HAVING clause); pass nil when the query has none. Both buffers must be
// pre-sized ([NumGroups][len(Aggs)] and [NumGroups]).
func (ev *AggEval) EvalVersion(b bundle.Binding, out [][]float64, include []bool) error {
	for g := range ev.groups {
		grp := &ev.groups[g]
		copy(ev.states, grp.base)
		for _, tu := range grp.rand {
			row, present, err := tu.Eval(b, ev.buf)
			if err != nil {
				return err
			}
			if !present {
				continue
			}
			if err := ev.contribute(row, ev.states); err != nil {
				return err
			}
		}
		for a, spec := range ev.agg.Aggs {
			out[g][a] = ev.states[a].Value(spec.Kind)
		}
		if include != nil {
			include[g] = ev.included(g, out[g])
		}
	}
	return nil
}

// included is the HAVING step shared by EvalVersion and EvalWindow: it
// writes one version's aggregate values (select-list order) into group
// g's prefilled outRow after the key prefix and evaluates the compiled
// HAVING predicate, NULL counting as false. Always true without HAVING.
func (ev *AggEval) included(g int, vals []float64) bool {
	if ev.having == nil {
		return true
	}
	row := ev.groups[g].outRow
	nk := len(ev.agg.GroupBy)
	for a, x := range vals {
		row[nk+a] = types.NewFloat(x)
	}
	return ev.having.EvalBool(row)
}

// winEval is the window-major evaluator's per-run state (DESIGN.md §13):
// one kernel per aggregate expression plus one for the final predicate,
// and the version-indexed scratch lanes they accumulate into. All slices
// are grown once and reused across groups and tuples.
type winEval struct {
	aggKerns  []*expr.Kernel // per aggregate; nil for COUNT(*)
	finalKern *expr.Kernel   // nil when there is no final predicate
	present   []bool         // per version: presence ∧ final predicate
	fmask     []bool         // final-predicate kernel output
	val       []float64      // aggregate-input kernel output
	vnull     []bool
	sums      [][]float64 // per aggregate × version running state
	counts    [][]int64
	vals      []float64 // one version's aggregate values, for HAVING
}

func (we *winEval) ensure(n int) {
	if len(we.present) < n {
		we.present = make([]bool, n)
		we.fmask = make([]bool, n)
		we.val = make([]float64, n)
		we.vnull = make([]bool, n)
		for a := range we.sums {
			we.sums[a] = make([]float64, n)
			we.counts[a] = make([]int64, n)
		}
	}
}

// buildWinEval lowers the aggregate-input expressions and the final
// predicate into kernels. False means some expression cannot be lowered
// (or has a static string result, which EvalNumeric refuses so the
// interpreter's error surfaces) and window-major evaluation is off for
// this run.
func (ev *AggEval) buildWinEval() bool {
	we := &winEval{
		aggKerns: make([]*expr.Kernel, len(ev.agg.Aggs)),
		sums:     make([][]float64, len(ev.agg.Aggs)),
		counts:   make([][]int64, len(ev.agg.Aggs)),
		vals:     make([]float64, len(ev.agg.Aggs)),
	}
	for i, spec := range ev.agg.Aggs {
		if spec.Expr == nil {
			continue
		}
		k, err := expr.CompileKernel(spec.Expr, ev.childSchema)
		if err != nil || k.Kind() == types.KindString {
			return false
		}
		we.aggKerns[i] = k
	}
	if ev.final != nil {
		k, err := ev.final.Kernel(ev.childSchema)
		if err != nil {
			return false
		}
		we.finalKern = k
	}
	ev.win = we
	return true
}

// windowIdentity reports whether a seed's first n version assignments are
// the identity mapping base, base+1, … over a contiguously materialized
// stretch of its window — the layout InitAssignAt produces, under which
// version v of the seed is exactly window row Assign[0]-Lo+v.
func windowIdentity(ws *Workspace, id uint64, n int) bool {
	s := ws.Seeds.MustGet(id)
	if len(s.Assign) < n {
		return false
	}
	base := s.Assign[0]
	for v := 1; v < n; v++ {
		if s.Assign[v] != base+uint64(v) {
			return false
		}
	}
	w := &s.Window
	return base >= w.Lo && base+uint64(n) <= w.End()
}

// EvalWindow computes out[g][a][v] for all n versions in a single
// window-major pass: per random tuple, the aggregate-input and
// final-predicate kernels run across the tuple's whole replicate window
// at once (the versions live contiguously in the seed window arena), and
// results accumulate into per-version running sums. Per (group,
// aggregate, version) the additions happen in exactly the order
// EvalVersion performs them — deterministic base first, then random
// tuples in plan order — so the results are bit-for-bit identical.
// include is EvalVersion's HAVING output widened to the window
// (include[g][v], pre-sized [NumGroups][n]); nil when the query has no
// HAVING. Once a group's lanes are final, each version's values go
// through the same include step as EvalVersion — HAVING runs per group
// per version on finished aggregates, so it needs no kernel.
//
// ok=false means window-major evaluation does not apply to this run —
// kernels are disabled, an expression cannot be lowered, or some seed's
// assignment / window / presence coverage is not the contiguous identity
// layout (e.g. n exceeds the materialized window, or a replenishing run
// left sparse positions). out and include may then be part-written; the
// caller must run the version-major path, which overwrites every slot and
// raises ErrNotMaterialized/replenishes exactly as before.
func (ev *AggEval) EvalWindow(ws *Workspace, n int, out [][][]float64, include [][]bool) (bool, error) {
	if !ev.kernelsOn || ev.winBad || n < 1 {
		return false, nil
	}
	// Every referenced seed must be in identity layout, and every presence
	// vector must cover its seed's n versions in its contiguous bits.
	seedOK := map[uint64]bool{}
	check := func(id uint64) bool {
		ok, seen := seedOK[id]
		if !seen {
			ok = windowIdentity(ws, id, n)
			seedOK[id] = ok
		}
		return ok
	}
	for g := range ev.groups {
		for _, tu := range ev.groups[g].rand {
			for _, r := range tu.Rand {
				if !check(r.SeedID) {
					return false, nil
				}
			}
			for _, p := range tu.Pres {
				if !check(p.SeedID) {
					return false, nil
				}
				base := ws.Seeds.MustGet(p.SeedID).Assign[0]
				if base < p.Lo || base+uint64(n) > p.Lo+uint64(len(p.Bits)) {
					return false, nil
				}
			}
		}
	}
	if ev.win == nil && !ev.buildWinEval() {
		ev.winBad = true
		return false, nil
	}
	we := ev.win
	we.ensure(n)
	for g := range ev.groups {
		grp := &ev.groups[g]
		for a := range ev.agg.Aggs {
			sums, counts, b := we.sums[a], we.counts[a], grp.base[a]
			for v := 0; v < n; v++ {
				sums[v] = b.Sum
				counts[v] = b.Count
			}
		}
		for _, tu := range grp.rand {
			if err := ws.Cancelled(); err != nil {
				return false, err
			}
			present := we.present[:n]
			for v := range present {
				present[v] = true
			}
			for _, p := range tu.Pres {
				off := int(ws.Seeds.MustGet(p.SeedID).Assign[0] - p.Lo)
				for v, bit := range p.Bits[off : off+n] {
					if !bit {
						present[v] = false
					}
				}
			}
			// The interpreter surfaces a malformed VG-output reference as an
			// error for any version where the tuple passes its presence
			// checks (Tuple.Eval checks Pres before filling Rand); mirror
			// that before evaluating anything.
			for _, r := range tu.Rand {
				s := ws.Seeds.MustGet(r.SeedID)
				rows := s.Window.Vals[s.Assign[0]-s.Window.Lo:]
				for v := 0; v < n; v++ {
					if present[v] && r.Out >= len(rows[v]) {
						return false, fmt.Errorf("bundle: seed %d output %d of %d", r.SeedID, r.Out, len(rows[v]))
					}
				}
			}
			if we.finalKern != nil {
				if !we.gather(ws, tu, we.finalKern, n) {
					return false, nil
				}
				we.finalKern.EvalMask(we.fmask)
				for v := 0; v < n; v++ {
					if !we.fmask[v] {
						present[v] = false
					}
				}
			}
			for a, spec := range ev.agg.Aggs {
				sums, counts := we.sums[a], we.counts[a]
				if spec.Kind == AggCount {
					for v := 0; v < n; v++ {
						if present[v] {
							counts[v]++
						}
					}
					continue
				}
				k := we.aggKerns[a]
				if !we.gather(ws, tu, k, n) || !k.EvalNumeric(we.val, we.vnull) {
					return false, nil
				}
				for v := 0; v < n; v++ {
					if present[v] && !we.vnull[v] {
						sums[v] += we.val[v]
						counts[v]++
					}
				}
			}
		}
		for a, spec := range ev.agg.Aggs {
			dst, sums, counts := out[g][a], we.sums[a], we.counts[a]
			for v := 0; v < n; v++ {
				dst[v] = AggState{Sum: sums[v], Count: counts[v]}.Value(spec.Kind)
			}
		}
		if include != nil {
			for v := 0; v < n; v++ {
				for a := range we.vals {
					we.vals[a] = out[g][a][v]
				}
				include[g][v] = ev.included(g, we.vals)
			}
		}
	}
	return true, nil
}

// gather loads one tuple's inputs into a kernel's column lanes: version v
// reads the tuple's deterministic values with each random slot overlaid
// by its seed's window row at position Assign[0]+v. Deterministic slots
// broadcast once; a random slot with a version whose VG output row is too
// short is skipped (such versions are always masked absent — gather runs
// after the bounds check above). False means a gathered value contradicts
// the kernel's static types and the caller must fall back.
func (we *winEval) gather(ws *Workspace, tu *bundle.Tuple, k *expr.Kernel, n int) bool {
	k.Begin(n)
	for _, col := range k.Cols() {
		slot := col.Slot()
		ri := -1
		for i, r := range tu.Rand { // last match wins, like Tuple.Eval's fill loop
			if r.Slot == slot {
				ri = i
			}
		}
		if ri < 0 {
			if !col.Fill(n, tu.Det[slot]) {
				return false
			}
			continue
		}
		r := tu.Rand[ri]
		s := ws.Seeds.MustGet(r.SeedID)
		off := s.Assign[0] - s.Window.Lo
		for v, row := range s.Window.Vals[off : off+uint64(n)] {
			if r.Out >= len(row) {
				continue // masked absent by the caller's bounds check
			}
			if !col.Set(v, row[r.Out]) {
				return false
			}
		}
	}
	return true
}
