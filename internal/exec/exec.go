// Package exec implements MCDB-R's physical query plans over Gibbs tuples
// (paper §5, Fig. 2). A plan is a tree of operators — Scan, Seed,
// Instantiate, Select, Project, Join, Split — that runs once, no matter how
// many DB versions the Gibbs Looper maintains, producing the stream of
// instantiated Gibbs tuples the looper consumes.
//
// Execution is a pull-based batch pipeline (DESIGN.md §9): Open builds an
// iterator tree, and each Next call hands the consumer one fixed-size,
// slab-backed batch of tuples, so a plan run's footprint is bounded by the
// batch size (plus whatever the consumer retains), not by relation size.
// Batch boundaries are semantically invisible: results are bit-for-bit
// identical to the old materialize-everything executor for every batch
// size, because TS-seed allocation, window materialization, and output
// order depend only on the tuple stream order, which batching preserves.
//
// A plan runs once per query run: results of fully deterministic subtrees
// are materialized on first execution and served from cache on
// re-execution (Materialize, the prefix cache), and Instantiate
// materializes one window per TS-seed. Stream positions beyond it are a
// pure function of (seed, position) and are drawn on demand by the Gibbs
// looper, so the paper's §9 replenishing runs do not exist here.
package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bundle"
	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/seeds"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vg"
)

// DefaultBatchSize is the number of tuples per streamed batch when
// Workspace.BatchSize is unset.
const DefaultBatchSize = 1024

// ErrMemoryBudget is wrapped by the error a query run fails with when its
// tuple arenas outgrow Workspace.MaxBytes (RunOptions.MaxBytes /
// mcdbr-serve -max-query-bytes). Test with errors.Is.
var ErrMemoryBudget = errors.New("exec: query memory budget exceeded")

// Batch is one unit of the streaming pipeline: a short slice of tuples,
// at most Workspace.BatchSize long. A batch (and every tuple in it) is
// valid only until the next Next or Close call on the iterator that
// returned it — producers recycle their slab arenas per batch. Consumers
// that need a tuple longer must copy it out with Workspace.Retain.
type Batch struct {
	Tuples []*bundle.Tuple
}

// Iterator is one open streaming execution of a plan subtree. Next
// returns the next non-empty batch, or (nil, nil) at end of stream (and
// keeps returning that if called again). Close releases the subtree's
// per-run resources (slab arenas return to the workspace pool); it must
// be called exactly once, after which no batch from the iterator may be
// used.
type Iterator interface {
	Next() (*Batch, error)
	Close()
}

// batchDurable is implemented by iterators whose batches stay valid for
// the whole workspace lifetime (materialized deterministic prefixes):
// consumers may reference their tuples without retaining copies.
type batchDurable interface{ durableBatches() bool }

func isDurable(it Iterator) bool {
	d, ok := it.(batchDurable)
	return ok && d.durableBatches()
}

// Workspace carries cross-operator state for one query.
type Workspace struct {
	// Master is the engine-level stream all TS-seed streams derive from.
	Master prng.Stream
	// Seeds is the query's TS-seed store.
	Seeds *seeds.Store
	// Window is the number of stream values Instantiate materializes per
	// seed (the paper's "1000 random values initially"). The looper draws
	// positions beyond it on demand; there are no replenishing runs.
	Window int
	// Base is the first stream position Instantiate materializes: the
	// window covers [Base, Base+Window). It is 0
	// for ordinary sequential execution; replicate-sharded parallel
	// execution gives each worker a workspace whose Base is the first
	// replicate of its shard, so workers materialize disjoint slices of the
	// same streams (stream element values depend only on (seed, position),
	// never on the window they were materialized into).
	Base uint64
	// Catalog resolves Scan table names.
	Catalog *storage.Catalog
	// Prefix, when non-nil, is the engine-level deterministic-prefix
	// materialization cache handle: Materialize nodes store and look up
	// their subtree results there, keyed by subtree fingerprint, so
	// repeated runs (prepared queries, shard workers) skip the
	// deterministic part of the plan entirely.
	Prefix *PrefixHandle
	// BatchSize is the number of tuples per streamed batch; <= 0 selects
	// DefaultBatchSize. Results are bit-for-bit identical for every batch
	// size.
	BatchSize int
	// MaxBytes, when positive, bounds the total slab-arena bytes this
	// query run (including its replicate-shard workers, which share the
	// gauge) may allocate; a run that would exceed it fails with an error
	// wrapping ErrMemoryBudget instead of exhausting process memory.
	MaxBytes int64
	// Gauge totals the run's slab-arena bytes across all its workspaces.
	Gauge *bundle.MemGauge
	// Ctx, when non-nil, carries run cancellation: sharded execution and
	// the Gibbs version loops poll it between units of work and abort with
	// its error once it is done (client disconnect, adaptive round driver
	// stopping in-flight shards). A nil Ctx means "never cancelled" — the
	// zero workspace stays valid and the hot path pays one nil check.
	Ctx context.Context

	// matCache holds each Materialize node's drained subtree for the
	// workspace's lifetime.
	matCache map[Node][]*bundle.Tuple

	// keep holds allocations that live as long as the workspace:
	// deterministic subtree outputs and the tuples consumers Retain. Operator iterators use pooled per-operator slabs
	// instead, recycled per batch.
	keep *bundle.Slab
	// lineages is the unused rest of the chunk that Select presence
	// lineages, which live as long as the workspace, are carved from.
	lineages []bundle.Lineage
	// pool recycles per-operator slabs across Open/Close cycles, so a
	// re-opened plan (a join's build side, a second run on the same
	// workspace) starts with warm chunks. ws.keep is never pooled: its
	// allocations outlive every iterator.
	pool []*bundle.Slab
	// Slabs, when non-nil, is an engine-shared pool consulted after the
	// run-local one, so a fresh workspace per query still opens with warm
	// chunks (re-growing arenas is the dominant fixed cost of a small
	// query). Pooled slabs are Reset (zeroed), so results are identical
	// with or without the pool.
	Slabs *SlabPool
}

// SlabPool recycles per-operator scratch slabs across query runs. Every
// run builds a fresh Workspace, so the run-local pool starts cold; an
// engine shares one SlabPool across its runs instead. A slab adopted
// from the pool charges its full chunk capacity to the adopting run's
// gauge (bundle.Slab.AdoptGauge), so the memory budget reads the same
// whether chunks came warm or fresh. Oversized slabs (a large scan's
// arenas) and overflow beyond the pool cap are left to the GC rather
// than pinned forever.
type SlabPool struct {
	mu    sync.Mutex
	slabs []*bundle.Slab
}

const (
	maxPooledSlabBytes = 256 << 10
	maxPooledSlabs     = 32
)

// NewSlabPool returns an empty engine-level slab pool.
func NewSlabPool() *SlabPool { return &SlabPool{} }

func (p *SlabPool) get() *bundle.Slab {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.slabs); n > 0 {
		s := p.slabs[n-1]
		p.slabs[n-1] = nil
		p.slabs = p.slabs[:n-1]
		return s
	}
	return nil
}

func (p *SlabPool) put(s *bundle.Slab) bool {
	if s.CapBytes() > maxPooledSlabBytes {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.slabs) >= maxPooledSlabs {
		return false
	}
	p.slabs = append(p.slabs, s)
	return true
}

// NewWorkspace builds a workspace. window <= 0 selects 1024.
func NewWorkspace(cat *storage.Catalog, master prng.Stream, window int) *Workspace {
	if window <= 0 {
		window = 1024
	}
	ws := &Workspace{
		Master:   master,
		Seeds:    seeds.NewStore(),
		Window:   window,
		Catalog:  cat,
		Gauge:    &bundle.MemGauge{},
		matCache: make(map[Node][]*bundle.Tuple),
		keep:     bundle.NewSlab(),
	}
	ws.keep.SetGauge(ws.Gauge)
	return ws
}

// Cancelled returns the context's error when the workspace's run has been
// cancelled, nil otherwise (including when no context was attached).
// Long-running loops — shard workers, Gibbs version sweeps — call it
// between units of work.
func (ws *Workspace) Cancelled() error {
	if ws.Ctx == nil {
		return nil
	}
	return context.Cause(ws.Ctx)
}

// adoptGauge points the workspace's arenas at a shared gauge, so shard
// workers charge their prototype's run-wide memory budget. Must be called
// before the workspace allocates anything.
func (ws *Workspace) adoptGauge(g *bundle.MemGauge) {
	ws.Gauge = g
	ws.keep.SetGauge(g)
}

// batchSize resolves the effective batch size.
func (ws *Workspace) batchSize() int {
	if ws.BatchSize > 0 {
		return ws.BatchSize
	}
	return DefaultBatchSize
}

// checkBudget fails the run once the arena gauge exceeds MaxBytes. Every
// producing iterator calls it at the top of Next, so a runaway query stops
// within one batch of crossing the budget.
func (ws *Workspace) checkBudget() error {
	if ws.MaxBytes > 0 {
		if used := ws.Gauge.Load(); used > ws.MaxBytes {
			return fmt.Errorf("%w: tuple arenas hold %d bytes, budget is %d bytes (raise RunOptions.MaxBytes / -max-query-bytes, or reduce what the query retains)", ErrMemoryBudget, used, ws.MaxBytes)
		}
	}
	return nil
}

// getSlab hands an iterator a per-operator slab from the workspace pool;
// putSlab resets it and returns it at Close, so re-opened iterators reuse
// warm chunks instead of growing fresh ones.
func (ws *Workspace) getSlab() *bundle.Slab {
	if n := len(ws.pool); n > 0 {
		s := ws.pool[n-1]
		ws.pool = ws.pool[:n-1]
		return s
	}
	if ws.Slabs != nil {
		if s := ws.Slabs.get(); s != nil {
			s.AdoptGauge(ws.Gauge)
			return s
		}
	}
	s := bundle.NewSlab()
	s.SetGauge(ws.Gauge)
	return s
}

func (ws *Workspace) putSlab(s *bundle.Slab) {
	s.Reset()
	if ws.Slabs != nil && ws.Slabs.put(s) {
		return
	}
	ws.pool = append(ws.pool, s)
}

// Retain copies tu out of its producer's recyclable batch arena into the
// workspace's run-lifetime slab, so the caller may hold it across batches
// (the gibbs looper keeps every random tuple for the whole sampling run).
// Det and Rand are copied; Pres is shared — presence vectors and their
// lineage are ordinary GC allocations and never mutated in place.
func (ws *Workspace) Retain(tu *bundle.Tuple) *bundle.Tuple {
	return retainInto(ws.keep, tu)
}

func retainInto(slab *bundle.Slab, tu *bundle.Tuple) *bundle.Tuple {
	nt := slab.Tuple()
	nt.Det = slab.Row(len(tu.Det))
	copy(nt.Det, tu.Det)
	if len(tu.Rand) > 0 {
		nt.Rand = slab.RandRefs(len(tu.Rand))
		copy(nt.Rand, tu.Rand)
	}
	nt.Pres = tu.Pres
	return nt
}

// drainNode streams the subtree under n to completion, retaining every
// tuple in slab — except when the subtree serves durable batches (a
// materialized prefix), which are referenced without copying. It is the
// buffering primitive behind Materialize and the build/ordering buffers
// inside join operators.
func (ws *Workspace) drainNode(n Node, slab *bundle.Slab) ([]*bundle.Tuple, error) {
	it, err := n.Open(ws)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	durable := isDurable(it)
	var out []*bundle.Tuple
	for {
		if err := ws.checkBudget(); err != nil {
			return nil, err
		}
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if durable {
			out = append(out, b.Tuples...)
			continue
		}
		for _, tu := range b.Tuples {
			out = append(out, retainInto(slab, tu))
		}
	}
}

// Node is one operator in a physical plan.
type Node interface {
	// Schema is the operator's output schema.
	Schema() *types.Schema
	// Open starts one streaming execution of the subtree, returning its
	// iterator.
	Open(ws *Workspace) (Iterator, error)
	// Deterministic reports whether the subtree involves no randomness.
	Deterministic() bool
	// Children returns the operator's inputs, left to right (see
	// FormatPlan).
	Children() []Node
	// String names the operator for plan display.
	String() string
}

// Scan reads a catalog table, qualifying column names with the alias.
type Scan struct {
	Table string
	Alias string

	schema *types.Schema
}

// NewScan builds a scan node; the schema is resolved against the catalog.
func NewScan(cat *storage.Catalog, table, alias string) (*Scan, error) {
	t, ok := cat.Get(table)
	if !ok {
		return nil, fmt.Errorf("exec: table %q not found", table)
	}
	if alias == "" {
		alias = table
	}
	return &Scan{Table: table, Alias: alias, schema: t.Schema().Rename(alias)}, nil
}

// Schema implements Node.
func (s *Scan) Schema() *types.Schema { return s.schema }

// Deterministic implements Node.
func (s *Scan) Deterministic() bool { return true }

func (s *Scan) String() string { return fmt.Sprintf("Scan(%s AS %s)", s.Table, s.Alias) }

// Open implements Node. Scan batches share the catalog's immutable row
// storage (Det rows are never copied); only the tuple headers are
// batch-local.
func (s *Scan) Open(ws *Workspace) (Iterator, error) {
	t, ok := ws.Catalog.Get(s.Table)
	if !ok {
		return nil, fmt.Errorf("exec: table %q not found", s.Table)
	}
	return &scanIter{ws: ws, t: t, slab: ws.getSlab()}, nil
}

type scanIter struct {
	ws    *Workspace
	t     *storage.Table
	slab  *bundle.Slab
	pos   int
	out   []*bundle.Tuple
	batch Batch
}

func (it *scanIter) Next() (*Batch, error) {
	if err := it.ws.checkBudget(); err != nil {
		return nil, err
	}
	n := it.t.NumRows() - it.pos
	if n <= 0 {
		return nil, nil
	}
	if bs := it.ws.batchSize(); n > bs {
		n = bs
	}
	it.slab.Reset()
	it.out = it.out[:0]
	for i := 0; i < n; i++ {
		tu := it.slab.Tuple()
		tu.Det = it.t.Row(it.pos + i)
		it.out = append(it.out, tu)
	}
	it.pos += n
	it.batch.Tuples = it.out
	return &it.batch, nil
}

func (it *scanIter) Close() {
	if it.slab != nil {
		it.ws.putSlab(it.slab)
		it.slab = nil
	}
}

// Seed implements the paper's Seed operator: it attaches a fresh TS-seed to
// every input tuple and appends the VG function's output columns as random
// attribute slots (values are filled in by Instantiate).
type Seed struct {
	Child Node
	// Gen is the VG function.
	Gen vg.Func
	// ParamExprs produce the VG parameter row from each input tuple; they
	// must reference deterministic attributes only.
	ParamExprs []expr.Expr
	// OutNames name the appended random columns (qualified by the caller).
	OutNames []string

	schema *types.Schema
}

// NewSeed builds a Seed node.
func NewSeed(child Node, gen vg.Func, paramExprs []expr.Expr, outNames []string) (*Seed, error) {
	kinds := gen.OutKinds()
	if len(outNames) != len(kinds) {
		return nil, fmt.Errorf("exec: VG %s emits %d columns, got %d names", gen.Name(), len(kinds), len(outNames))
	}
	if gen.Arity() >= 0 && len(paramExprs) != gen.Arity() {
		return nil, fmt.Errorf("exec: VG %s needs %d parameters, got %d", gen.Name(), gen.Arity(), len(paramExprs))
	}
	cols := make([]types.Column, len(kinds))
	for i, k := range kinds {
		cols[i] = types.Column{Name: outNames[i], Kind: k}
	}
	return &Seed{Child: child, Gen: gen, ParamExprs: paramExprs, OutNames: outNames,
		schema: child.Schema().Concat(types.NewSchema(cols...))}, nil
}

// Schema implements Node.
func (s *Seed) Schema() *types.Schema { return s.schema }

// Deterministic implements Node.
func (s *Seed) Deterministic() bool { return false }

func (s *Seed) String() string { return fmt.Sprintf("Seed(%s)", s.Gen.Name()) }

// Open implements Node. TS-seed allocation order is the input tuple
// order, which batching preserves — that is what makes Seed's substream
// assignment (and with it every Monte Carlo sample) batch-size-invariant.
// A non-deterministic child is buffered fully at Open: the materializing
// executor evaluated the child — and allocated the child's own seeds —
// before allocating any of this operator's, and interleaving the two
// under streaming would reorder seed allocation. Deterministic children
// (the shape every planner-built pipeline has: Scan below Seed) allocate
// no seeds and stream one batch at a time.
func (s *Seed) Open(ws *Workspace) (Iterator, error) {
	it := &seedIter{
		ws:         ws,
		op:         s,
		childWidth: s.Child.Schema().Len(),
		nOut:       len(s.Gen.OutKinds()),
	}
	it.compiled = make([]*expr.Compiled, len(s.ParamExprs))
	for i, pe := range s.ParamExprs {
		c, err := expr.Compile(pe, s.Child.Schema())
		if err != nil {
			return nil, fmt.Errorf("exec: Seed parameter %d: %w", i, err)
		}
		it.compiled[i] = c
	}
	if s.Child.Deterministic() {
		child, err := s.Child.Open(ws)
		if err != nil {
			return nil, err
		}
		it.child = child
	} else {
		it.bufSlab = ws.getSlab()
		buf, err := ws.drainNode(s.Child, it.bufSlab)
		if err != nil {
			it.Close()
			return nil, err
		}
		it.buf = buf
	}
	it.slab = ws.getSlab()
	return it, nil
}

type seedIter struct {
	ws       *Workspace
	op       *Seed
	compiled []*expr.Compiled

	child   Iterator // streaming (deterministic) child; nil when buffered
	buf     []*bundle.Tuple
	bufSlab *bundle.Slab
	pos     int

	childWidth, nOut int

	slab  *bundle.Slab
	out   []*bundle.Tuple
	batch Batch
}

func (it *seedIter) Next() (*Batch, error) {
	if err := it.ws.checkBudget(); err != nil {
		return nil, err
	}
	var in []*bundle.Tuple
	if it.child != nil {
		b, err := it.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		in = b.Tuples
	} else {
		if it.pos >= len(it.buf) {
			return nil, nil
		}
		n := len(it.buf) - it.pos
		if bs := it.ws.batchSize(); n > bs {
			n = bs
		}
		in = it.buf[it.pos : it.pos+n]
		it.pos += n
	}
	it.slab.Reset()
	it.out = it.out[:0]
	s, ws := it.op, it.ws
	for _, tu := range in {
		// The seed store retains the parameter row for the whole run, so
		// it must be an ordinary GC-managed allocation: carving it from
		// this operator's slab would recycle it out from under the store
		// at the next batch.
		params := make([]types.Value, len(it.compiled))
		for j, c := range it.compiled {
			params[j] = c.Eval(tu.Det)
		}
		// Parameter expressions over random slots would read Null
		// placeholders; reject them so mistakes surface early.
		for j, p := range params {
			if p.IsNull() {
				if cols := expr.Columns(s.ParamExprs[j]); len(cols) > 0 {
					for _, cn := range cols {
						if isRandomSlot(tu, s.Child.Schema().Lookup(cn)) {
							return nil, fmt.Errorf("exec: Seed parameter %d references random attribute %q", j, cn)
						}
					}
				}
			}
		}
		seed := ws.Seeds.Alloc(ws.Master, s.Gen, params)
		// Long window fills poll the run context so cancellation lands
		// mid-materialization, not only between versions.
		seed.Cancel = ws.Cancelled
		det := it.slab.Row(it.childWidth + it.nOut)
		copy(det, tu.Det)
		nt := it.slab.Tuple()
		nt.Det = det
		nt.Rand = it.slab.RandRefs(len(tu.Rand) + it.nOut)
		copy(nt.Rand, tu.Rand)
		for o := 0; o < it.nOut; o++ {
			nt.Rand[len(tu.Rand)+o] = bundle.RandRef{Slot: it.childWidth + o, SeedID: seed.ID, Out: o}
		}
		// Presence lineage is shared, not copied: tuples never mutate their
		// Pres slices in place (extensions always build a fresh slice).
		nt.Pres = tu.Pres
		it.out = append(it.out, nt)
	}
	it.batch.Tuples = it.out
	return &it.batch, nil
}

func (it *seedIter) Close() {
	if it.child != nil {
		it.child.Close()
		it.child = nil
	}
	if it.slab != nil {
		it.ws.putSlab(it.slab)
		it.slab = nil
	}
	if it.bufSlab != nil {
		it.ws.putSlab(it.bufSlab)
		it.bufSlab = nil
		it.buf = nil
	}
}

func isRandomSlot(tu *bundle.Tuple, slot int) bool {
	if slot < 0 {
		return false
	}
	for _, r := range tu.Rand {
		if r.Slot == slot {
			return true
		}
	}
	return false
}

// Instantiate materializes stream-value windows for every TS-seed
// referenced by the child's output (the paper's Instantiate operator): the
// window is [Base, Base+Window). Positions beyond it are drawn on demand
// by the Gibbs looper, never by a second run of the plan.
type Instantiate struct {
	Child Node
}

// Schema implements Node.
func (n *Instantiate) Schema() *types.Schema { return n.Child.Schema() }

// Deterministic implements Node.
func (n *Instantiate) Deterministic() bool { return false }

func (n *Instantiate) String() string { return "Instantiate" }

// Open implements Node. Instantiate forwards its child's batches
// unchanged, materializing each newly-seen seed's window on the way
// through; the done set spans the whole run, so a seed shared by many
// batches is materialized once.
func (n *Instantiate) Open(ws *Workspace) (Iterator, error) {
	child, err := n.Child.Open(ws)
	if err != nil {
		return nil, err
	}
	return &instIter{ws: ws, child: child, done: map[uint64]bool{}}, nil
}

type instIter struct {
	ws    *Workspace
	child Iterator
	done  map[uint64]bool
}

func (it *instIter) Next() (*Batch, error) {
	b, err := it.child.Next()
	if err != nil || b == nil {
		return b, err
	}
	ws := it.ws
	for _, tu := range b.Tuples {
		for _, r := range tu.Rand {
			if it.done[r.SeedID] {
				continue
			}
			it.done[r.SeedID] = true
			if err := ws.Seeds.MustGet(r.SeedID).Materialize(ws.Base, ws.Window, nil); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func (it *instIter) Close() { it.child.Close() }

// Select filters tuples by a predicate. Deterministic predicates drop
// tuples outright. A predicate that references random attributes of
// exactly one TS-seed per tuple is recorded as an isPres vector over that
// seed's materialized positions (paper §5), with the predicate's lineage
// for positions beyond them. Unlike the paper, a tuple whose vector is
// all-false is kept: the Gibbs looper may later assign a position beyond
// the window where the predicate holds, and every consumer skips absent
// tuples. Predicates spanning random attributes of multiple seeds must
// instead be pulled up into the Gibbs Looper (paper App. A).
type Select struct {
	Child Node
	Pred  expr.Expr
}

// Schema implements Node.
func (n *Select) Schema() *types.Schema { return n.Child.Schema() }

// Deterministic implements Node.
func (n *Select) Deterministic() bool { return n.Child.Deterministic() }

func (n *Select) String() string { return fmt.Sprintf("Select(%s)", n.Pred) }

// Open implements Node.
func (n *Select) Open(ws *Workspace) (Iterator, error) {
	schema := n.Child.Schema()
	compiled, err := expr.Compile(n.Pred, schema)
	if err != nil {
		return nil, fmt.Errorf("exec: Select: %w", err)
	}
	refSlots := make([]int, 0, 4)
	for _, name := range expr.Columns(n.Pred) {
		refSlots = append(refSlots, schema.MustLookup(name))
	}
	child, err := n.Child.Open(ws)
	if err != nil {
		return nil, err
	}
	it := &selectIter{
		ws:       ws,
		op:       n,
		child:    child,
		compiled: compiled,
		refSlots: refSlots,
		scratch:  make(types.Row, schema.Len()),
		slab:     ws.getSlab(),
	}
	// Kernel lowering is best-effort: a predicate the kernel compiler
	// rejects keeps the interpreter (DESIGN.md §13 fallback rule).
	if k, err := expr.CompileKernel(n.Pred, schema); err == nil {
		it.kern = k
	}
	return it, nil
}

type selectIter struct {
	ws       *Workspace
	op       *Select
	child    Iterator
	compiled *expr.Compiled
	kern     *expr.Kernel // nil: interpreter-only (not lowerable)
	refSlots []int
	scratch  types.Row
	refs     []bundle.RandRef
	seedIDs  []uint64
	sel      []int
	slab     *bundle.Slab
	out      []*bundle.Tuple
	batch    Batch
}

// hasRandRef reports whether any predicate-referenced slot is a random
// (VG-generated) attribute of tu.
func (it *selectIter) hasRandRef(tu *bundle.Tuple) bool {
	for _, r := range tu.Rand {
		for _, slot := range it.refSlots {
			if r.Slot == slot {
				return true
			}
		}
	}
	return false
}

// evalDetBatch filters a batch whose tuples are all deterministic w.r.t.
// the predicate through the kernel: the referenced columns are gathered
// once for the whole batch, then the fused compare-and-filter kernel
// emits a selection vector. Returns false — leaving it.out untouched —
// when a gathered value contradicts the schema's declared kind, in which
// case the caller re-runs the batch through the interpreter.
func (it *selectIter) evalDetBatch(b *Batch) bool {
	n := len(b.Tuples)
	it.kern.Begin(n)
	for _, col := range it.kern.Cols() {
		slot := col.Slot()
		for i, tu := range b.Tuples {
			if !col.Set(i, tu.Det[slot]) {
				return false
			}
		}
	}
	it.sel = it.kern.EvalSel(it.sel[:0])
	for _, i := range it.sel {
		it.out = append(it.out, b.Tuples[i])
	}
	return true
}

// Next filters one child batch at a time, pulling further batches only
// while the output is still empty: passing tuples are forwarded by
// pointer (or share Det/Rand with the input), so the iterator must never
// advance the child while holding output from an earlier child batch.
func (it *selectIter) Next() (*Batch, error) {
	if err := it.ws.checkBudget(); err != nil {
		return nil, err
	}
	it.slab.Reset()
	for {
		b, err := it.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		it.out = it.out[:0]
		if it.kern != nil {
			det := true
			for _, tu := range b.Tuples {
				if it.hasRandRef(tu) {
					det = false
					break
				}
			}
			if det && it.evalDetBatch(b) {
				if len(it.out) > 0 {
					it.batch.Tuples = it.out
					return &it.batch, nil
				}
				continue
			}
			it.out = it.out[:0] // evalDetBatch bailed before appending; keep it tidy
		}
		for _, tu := range b.Tuples {
			// Which referenced slots are random in this tuple, and for which seed?
			it.refs = it.refs[:0]
			it.seedIDs = it.seedIDs[:0]
			for _, slot := range it.refSlots {
				for _, r := range tu.Rand {
					if r.Slot == slot {
						it.refs = append(it.refs, r)
						seen := false
						for _, id := range it.seedIDs {
							if id == r.SeedID {
								seen = true
								break
							}
						}
						if !seen {
							it.seedIDs = append(it.seedIDs, r.SeedID)
						}
					}
				}
			}
			switch {
			case len(it.refs) == 0:
				if it.compiled.EvalBool(tu.Det) {
					it.out = append(it.out, tu)
				}
			case len(it.seedIDs) == 1:
				pv, err := buildPresVec(it.ws, tu, it.refs, it.compiled, it.kern, it.scratch)
				if err != nil {
					return nil, err
				}
				// Shallow clone: Det and Rand are shared read-only with the
				// input tuple; only the presence lineage is extended, into a
				// fresh slice so the input's Pres is never mutated.
				nt := it.slab.Tuple()
				nt.Det = tu.Det
				nt.Rand = tu.Rand
				nt.Pres = make([]bundle.PresVec, len(tu.Pres)+1)
				copy(nt.Pres, tu.Pres)
				nt.Pres[len(tu.Pres)] = pv
				it.out = append(it.out, nt)
			default:
				return nil, fmt.Errorf("exec: Select predicate %s spans random attributes of %d seeds; pull it up into the GibbsLooper", it.op.Pred, len(it.seedIDs))
			}
		}
		if len(it.out) > 0 {
			it.batch.Tuples = it.out
			return &it.batch, nil
		}
	}
}

func (it *selectIter) Close() {
	it.child.Close()
	if it.slab != nil {
		it.ws.putSlab(it.slab)
		it.slab = nil
	}
}

// buildPresVec evaluates the predicate for every materialized position of
// the (single) seed behind refs, substituting that position's VG outputs
// into the referenced slots, and attaches the lineage that answers for
// positions beyond the window. scratch is a caller-provided row buffer of
// the tuple's width, overwritten per call. When kern is non-nil the window
// is evaluated window-major through the kernel (deterministic slots
// broadcast once, VG outputs gathered per version).
func buildPresVec(ws *Workspace, tu *bundle.Tuple, refs []bundle.RandRef, pred *expr.Compiled, kern *expr.Kernel, scratch types.Row) (bundle.PresVec, error) {
	seedID := refs[0].SeedID
	w := &ws.Seeds.MustGet(seedID).Window
	// The lineage outlives the batch, so it is carved from run-lifetime
	// storage, and its Det and Refs from the keep slab: never the tuple's
	// batch row or the caller's reused refs buffer.
	if len(ws.lineages) == 0 {
		ws.lineages = make([]bundle.Lineage, 64)
	}
	lin := &ws.lineages[0]
	ws.lineages = ws.lineages[1:]
	*lin = bundle.Lineage{Pred: pred, Refs: ws.keep.RandRefs(len(refs)), Det: ws.keep.Row(len(tu.Det))}
	copy(lin.Refs, refs)
	copy(lin.Det, tu.Det)
	pv := bundle.PresVec{SeedID: seedID, Lo: w.Lo, Bits: make([]bool, len(w.Vals)), Lineage: lin}
	if kern != nil && len(w.Vals) > 0 {
		ok, err := presBitsKernel(w, tu, refs, kern, pv.Bits)
		if ok || err != nil {
			return pv, err
		}
	}
	row := scratch
	copy(row, tu.Det)
	for i, vals := range w.Vals {
		for _, r := range refs {
			if r.Out >= len(vals) {
				return pv, fmt.Errorf("exec: seed %d VG output %d of %d", seedID, r.Out, len(vals))
			}
			row[r.Slot] = vals[r.Out]
		}
		pv.Bits[i] = pred.EvalBool(row)
	}
	return pv, nil
}

// presBitsKernel runs the Select predicate across a seed's contiguous
// window segment through the fused kernel: one lane per version, the
// tuple's deterministic slots broadcast once, the referenced VG outputs
// gathered per version. Returns false — bits possibly part-written, the
// caller re-runs the interpreter over all of them — when a gathered value
// contradicts the kernel's static types. It errors only where the
// interpreter would too (VG output index out of range).
func presBitsKernel(w *seeds.Window, tu *bundle.Tuple, refs []bundle.RandRef, kern *expr.Kernel, bits []bool) (bool, error) {
	n := len(w.Vals)
	kern.Begin(n)
	for _, col := range kern.Cols() {
		slot := col.Slot()
		out := -1
		for _, r := range refs { // last match wins, like the interpreter's substitution loop
			if r.Slot == slot {
				out = r.Out
			}
		}
		if out < 0 {
			if !col.Fill(n, tu.Det[slot]) {
				return false, nil
			}
			continue
		}
		for i, vals := range w.Vals {
			if out >= len(vals) {
				return false, fmt.Errorf("exec: seed %d VG output %d of %d", refs[0].SeedID, out, len(vals))
			}
			if !col.Set(i, vals[out]) {
				return false, nil
			}
		}
	}
	kern.EvalMask(bits)
	return true, nil
}

// Project narrows the schema to the named columns.
type Project struct {
	Child Node
	Cols  []string

	schema *types.Schema
	idx    []int
}

// NewProject builds a projection node.
func NewProject(child Node, cols ...string) (*Project, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := child.Schema().Lookup(c)
		if j < 0 {
			return nil, fmt.Errorf("exec: Project column %q not in %s", c, child.Schema())
		}
		idx[i] = j
	}
	return &Project{Child: child, Cols: cols, schema: child.Schema().Project(idx), idx: idx}, nil
}

// Schema implements Node.
func (n *Project) Schema() *types.Schema { return n.schema }

// Deterministic implements Node.
func (n *Project) Deterministic() bool { return n.Child.Deterministic() }

func (n *Project) String() string { return fmt.Sprintf("Project%v", n.Cols) }

// Open implements Node.
func (n *Project) Open(ws *Workspace) (Iterator, error) {
	child, err := n.Child.Open(ws)
	if err != nil {
		return nil, err
	}
	return &projIter{ws: ws, op: n, child: child, slab: ws.getSlab()}, nil
}

type projIter struct {
	ws    *Workspace
	op    *Project
	child Iterator
	slab  *bundle.Slab
	out   []*bundle.Tuple
	batch Batch
}

func (it *projIter) Next() (*Batch, error) {
	if err := it.ws.checkBudget(); err != nil {
		return nil, err
	}
	b, err := it.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	it.slab.Reset()
	it.out = it.out[:0]
	idx := it.op.idx
	for _, tu := range b.Tuples {
		det := it.slab.Row(len(idx))
		nt := it.slab.Tuple()
		nt.Det = det
		nRand := 0
		for _, oldSlot := range idx {
			for _, r := range tu.Rand {
				if r.Slot == oldSlot {
					nRand++
				}
			}
		}
		nt.Rand = it.slab.RandRefs(nRand)
		k := 0
		for newSlot, oldSlot := range idx {
			det[newSlot] = tu.Det[oldSlot]
			for _, r := range tu.Rand {
				if r.Slot == oldSlot {
					nt.Rand[k] = bundle.RandRef{Slot: newSlot, SeedID: r.SeedID, Out: r.Out}
					k++
				}
			}
		}
		// Presence lineage always survives projection: it constrains the
		// tuple's existence, not a particular column. Shared, not copied —
		// Pres slices are never mutated in place.
		nt.Pres = tu.Pres
		it.out = append(it.out, nt)
	}
	it.batch.Tuples = it.out
	return &it.batch, nil
}

func (it *projIter) Close() {
	it.child.Close()
	if it.slab != nil {
		it.ws.putSlab(it.slab)
		it.slab = nil
	}
}

// HashJoin is an equi-join on deterministic attributes. Joins on random
// attributes must be rewritten with Split first (paper §8); execution
// rejects tuples whose join key is a random slot.
type HashJoin struct {
	Left, Right         Node
	LeftCols, RightCols []string
	// Residual, if non-nil, is an extra deterministic predicate evaluated
	// on the concatenated schema.
	Residual expr.Expr
	// BuildRows, when > 0, pre-sizes the build-side hash table from the
	// planner's row estimate (plan.Lower sets it from the right subtree's
	// cardinality), saving rehash-and-copy cycles while the build side
	// drains.
	BuildRows int

	schema *types.Schema
}

// NewHashJoin builds a hash join node.
func NewHashJoin(left, right Node, leftCols, rightCols []string, residual expr.Expr) (*HashJoin, error) {
	if len(leftCols) != len(rightCols) || len(leftCols) == 0 {
		return nil, fmt.Errorf("exec: join needs matching non-empty key lists, got %d vs %d", len(leftCols), len(rightCols))
	}
	for _, c := range leftCols {
		if left.Schema().Lookup(c) < 0 {
			return nil, fmt.Errorf("exec: join key %q not in left schema %s", c, left.Schema())
		}
	}
	for _, c := range rightCols {
		if right.Schema().Lookup(c) < 0 {
			return nil, fmt.Errorf("exec: join key %q not in right schema %s", c, right.Schema())
		}
	}
	return &HashJoin{Left: left, Right: right, LeftCols: leftCols, RightCols: rightCols,
		Residual: residual, schema: left.Schema().Concat(right.Schema())}, nil
}

// Schema implements Node.
func (n *HashJoin) Schema() *types.Schema { return n.schema }

// Deterministic implements Node.
func (n *HashJoin) Deterministic() bool { return n.Left.Deterministic() && n.Right.Deterministic() }

func (n *HashJoin) String() string {
	return fmt.Sprintf("HashJoin(%v = %v)", n.LeftCols, n.RightCols)
}

// Open implements Node. The build side (right) is drained into the hash
// table here; the probe side (left) streams batch by batch. When both
// sides are non-deterministic the left is buffered fully first instead:
// the materializing executor evaluated the left subtree — and allocated
// its TS-seeds — before the right, and streaming the probe side after the
// build drain would reverse that allocation order.
func (n *HashJoin) Open(ws *Workspace) (Iterator, error) {
	it := &hashJoinIter{
		ws:   ws,
		op:   n,
		lIdx: lookupAll(n.Left.Schema(), n.LeftCols),
		rIdx: lookupAll(n.Right.Schema(), n.RightCols),
		lw:   n.Left.Schema().Len(),
	}
	if n.Residual != nil {
		c, err := expr.Compile(n.Residual, n.schema)
		if err != nil {
			return nil, fmt.Errorf("exec: join residual: %w", err)
		}
		it.residual = c
	}
	it.bufSlab = ws.getSlab()
	if !n.Left.Deterministic() && !n.Right.Deterministic() {
		buf, err := ws.drainNode(n.Left, it.bufSlab)
		if err != nil {
			it.Close()
			return nil, err
		}
		it.leftBuf = buf
	} else {
		left, err := n.Left.Open(ws)
		if err != nil {
			it.Close()
			return nil, err
		}
		it.left = left
	}
	rows := n.BuildRows
	if rows < 0 {
		rows = 0
	}
	it.build = make(map[uint64][]*bundle.Tuple, rows)
	rit, err := n.Right.Open(ws)
	if err != nil {
		it.Close()
		return nil, err
	}
	if err := it.drainBuild(rit); err != nil {
		rit.Close()
		it.Close()
		return nil, err
	}
	rit.Close()
	it.slab = ws.getSlab()
	return it, nil
}

// drainBuild streams the build side into the hash table, retaining each
// tuple (durable materialized prefixes are referenced without copying).
func (it *hashJoinIter) drainBuild(rit Iterator) error {
	durable := isDurable(rit)
	for {
		if err := it.ws.checkBudget(); err != nil {
			return err
		}
		b, err := rit.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		for _, tu := range b.Tuples {
			if err := checkDetKey(tu, it.rIdx, "right"); err != nil {
				return err
			}
			if !durable {
				tu = retainInto(it.bufSlab, tu)
			}
			h := hashKey(tu.Det, it.rIdx)
			it.build[h] = append(it.build[h], tu)
		}
	}
}

type hashJoinIter struct {
	ws       *Workspace
	op       *HashJoin
	lIdx     []int
	rIdx     []int
	residual *expr.Compiled
	lw       int

	build   map[uint64][]*bundle.Tuple
	bufSlab *bundle.Slab // retains build-side tuples (and the buffered left)

	left    Iterator // streaming probe side; nil when buffered
	leftBuf []*bundle.Tuple
	lpos    int
	in      *Batch
	pos     int

	// Probe-side key hashes, computed batch-at-a-time (DESIGN.md §13):
	// hashes[i] pairs with in.Tuples[i]; bufHashes pairs with leftBuf,
	// filled once on first probe.
	hashes    []uint64
	bufHashes []uint64

	// Probe resume point: the current left tuple and its bucket cursor.
	ltu    *bundle.Tuple
	bucket []*bundle.Tuple
	bpos   int

	slab  *bundle.Slab
	out   []*bundle.Tuple
	batch Batch
}

// nextLeft advances to the next probe tuple, pulling child batches as
// needed, and returns the tuple together with its probe-key hash. The
// returned tuple stays valid until the next nextLeft call that crosses a
// batch boundary — the iterator finishes the tuple's bucket before
// advancing, so it never dangles. Key checks and hashes are computed for
// the whole batch up front: both touch only deterministic slots, so they
// vectorize regardless of tuple lineage.
func (it *hashJoinIter) nextLeft() (*bundle.Tuple, uint64, error) {
	if it.left == nil {
		if it.bufHashes == nil && len(it.leftBuf) > 0 {
			hashes := make([]uint64, len(it.leftBuf))
			for i, tu := range it.leftBuf {
				if err := checkDetKey(tu, it.lIdx, "left"); err != nil {
					return nil, 0, err
				}
				hashes[i] = hashKey(tu.Det, it.lIdx)
			}
			it.bufHashes = hashes
		}
		if it.lpos >= len(it.leftBuf) {
			return nil, 0, nil
		}
		tu := it.leftBuf[it.lpos]
		h := it.bufHashes[it.lpos]
		it.lpos++
		return tu, h, nil
	}
	for it.in == nil || it.pos >= len(it.in.Tuples) {
		b, err := it.left.Next()
		if err != nil {
			return nil, 0, err
		}
		if b == nil {
			return nil, 0, nil
		}
		it.hashes = it.hashes[:0]
		for _, tu := range b.Tuples {
			if err := checkDetKey(tu, it.lIdx, "left"); err != nil {
				return nil, 0, err
			}
			it.hashes = append(it.hashes, hashKey(tu.Det, it.lIdx))
		}
		it.in, it.pos = b, 0
	}
	tu := it.in.Tuples[it.pos]
	h := it.hashes[it.pos]
	it.pos++
	return tu, h, nil
}

func (it *hashJoinIter) Next() (*Batch, error) {
	if err := it.ws.checkBudget(); err != nil {
		return nil, err
	}
	it.slab.Reset()
	it.out = it.out[:0]
	limit := it.ws.batchSize()
	for len(it.out) < limit {
		if it.bpos < len(it.bucket) {
			rtu := it.bucket[it.bpos]
			it.bpos++
			if !keysEqual(it.ltu.Det, it.lIdx, rtu.Det, it.rIdx) {
				continue
			}
			det := it.slab.Row(it.lw + len(rtu.Det))
			copy(det, it.ltu.Det)
			copy(det[it.lw:], rtu.Det)
			if it.residual != nil && !it.residual.EvalBool(det) {
				continue
			}
			nt := it.slab.Tuple()
			nt.Det = det
			nt.Rand = concatRand(it.slab, it.ltu.Rand, rtu.Rand, it.lw)
			nt.Pres = concatPres(it.ltu.Pres, rtu.Pres)
			it.out = append(it.out, nt)
			continue
		}
		ltu, h, err := it.nextLeft()
		if err != nil {
			return nil, err
		}
		if ltu == nil {
			break
		}
		it.ltu = ltu
		it.bucket = it.build[h]
		it.bpos = 0
	}
	if len(it.out) == 0 {
		return nil, nil
	}
	it.batch.Tuples = it.out
	return &it.batch, nil
}

func (it *hashJoinIter) Close() {
	if it.left != nil {
		it.left.Close()
		it.left = nil
	}
	if it.slab != nil {
		it.ws.putSlab(it.slab)
		it.slab = nil
	}
	if it.bufSlab != nil {
		it.ws.putSlab(it.bufSlab)
		it.bufSlab = nil
	}
	it.build, it.leftBuf, it.bucket, it.in, it.ltu = nil, nil, nil, nil, nil
	it.hashes, it.bufHashes = nil, nil
}

// concatRand builds the joined tuple's random bindings: the left side's
// unchanged, the right side's shifted by the left schema width. The result
// comes from the slab; nil when both sides are deterministic.
func concatRand(slab *bundle.Slab, l, r []bundle.RandRef, lw int) []bundle.RandRef {
	if len(l)+len(r) == 0 {
		return nil
	}
	out := slab.RandRefs(len(l) + len(r))
	copy(out, l)
	for i, ref := range r {
		out[len(l)+i] = bundle.RandRef{Slot: ref.Slot + lw, SeedID: ref.SeedID, Out: ref.Out}
	}
	return out
}

// concatPres merges presence lineage from both join sides; nil when both
// are empty, the (shared, read-only) non-empty side when only one side
// carries lineage.
func concatPres(l, r []bundle.PresVec) []bundle.PresVec {
	switch {
	case len(l) == 0:
		return r
	case len(r) == 0:
		return l
	}
	out := make([]bundle.PresVec, len(l)+len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

func lookupAll(s *types.Schema, cols []string) []int {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = s.MustLookup(c)
	}
	return idx
}

func checkDetKey(tu *bundle.Tuple, idx []int, side string) error {
	for _, slot := range idx {
		if isRandomSlot(tu, slot) {
			return fmt.Errorf("exec: join key on %s side is a random attribute (slot %d); apply Split first (paper §8)", side, slot)
		}
	}
	return nil
}

func hashKey(row types.Row, idx []int) uint64 {
	h := uint64(1469598103934665603)
	for _, i := range idx {
		h = (h ^ row[i].Hash()) * 1099511628211
	}
	return h
}

func keysEqual(a types.Row, aIdx []int, b types.Row, bIdx []int) bool {
	for i := range aIdx {
		if !a[aIdx[i]].Equal(b[bIdx[i]]) {
			return false
		}
	}
	return true
}

// Split implements the paper's Split operation (§8): it converts a random
// attribute into a deterministic one by emitting one tuple per distinct
// materialized value, transferring the nondeterminism into an isPres
// vector. Joins on the attribute are then joins on a deterministic value.
// The group set is the window's distinct values: a stream position beyond
// the window whose value is not among them has no output tuple to be
// present in, so evaluating it is an error (bundle.Lineage), never a
// silently dropped tuple.
type Split struct {
	Child Node
	Col   string
}

// Schema implements Node.
func (n *Split) Schema() *types.Schema { return n.Child.Schema() }

// Deterministic implements Node.
func (n *Split) Deterministic() bool { return n.Child.Deterministic() }

func (n *Split) String() string { return fmt.Sprintf("Split(%s)", n.Col) }

// Open implements Node.
func (n *Split) Open(ws *Workspace) (Iterator, error) {
	slot := n.Child.Schema().Lookup(n.Col)
	if slot < 0 {
		return nil, fmt.Errorf("exec: Split column %q not in %s", n.Col, n.Child.Schema())
	}
	child, err := n.Child.Open(ws)
	if err != nil {
		return nil, err
	}
	return &splitIter{ws: ws, op: n, child: child, slot: slot, slab: ws.getSlab()}, nil
}

type splitGroup struct {
	val types.Value
	pv  bundle.PresVec
}

type splitIter struct {
	ws    *Workspace
	op    *Split
	child Iterator
	slot  int

	in  *Batch
	pos int

	// Split resume point: the input tuple whose value groups are being
	// emitted, its pending groups, and its random refs minus the split
	// slot. A tuple can fan out into more groups than fit one output
	// batch, so emission pauses and resumes across Next calls.
	cur      *bundle.Tuple
	groups   []splitGroup
	gpos     int
	restRand []bundle.RandRef

	slab  *bundle.Slab
	out   []*bundle.Tuple
	batch Batch
}

func (it *splitIter) Next() (*Batch, error) {
	if err := it.ws.checkBudget(); err != nil {
		return nil, err
	}
	it.slab.Reset()
	it.out = it.out[:0]
	limit := it.ws.batchSize()
	for len(it.out) < limit {
		if it.gpos < len(it.groups) {
			g := &it.groups[it.gpos]
			it.gpos++
			tu := it.cur
			det := it.slab.Row(len(tu.Det))
			copy(det, tu.Det)
			det[it.slot] = g.val
			nt := it.slab.Tuple()
			nt.Det = det
			nt.Rand = it.slab.RandRefs(len(it.restRand))
			copy(nt.Rand, it.restRand)
			nt.Pres = make([]bundle.PresVec, len(tu.Pres)+1)
			copy(nt.Pres, tu.Pres)
			nt.Pres[len(tu.Pres)] = g.pv
			it.out = append(it.out, nt)
			continue
		}
		if it.in == nil || it.pos >= len(it.in.Tuples) {
			// Deterministic input tuples are forwarded by pointer, so the
			// child must not be advanced while the output holds any.
			if len(it.out) > 0 {
				break
			}
			b, err := it.child.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			it.in, it.pos = b, 0
			continue
		}
		tu := it.in.Tuples[it.pos]
		it.pos++
		ref, isRand := (*bundle.RandRef)(nil), false
		it.restRand = it.restRand[:0]
		for i := range tu.Rand {
			if tu.Rand[i].Slot == it.slot {
				ref, isRand = &tu.Rand[i], true
			} else {
				it.restRand = append(it.restRand, tu.Rand[i])
			}
		}
		if !isRand {
			it.out = append(it.out, tu)
			continue
		}
		w := &it.ws.Seeds.MustGet(ref.SeedID).Window
		// Enumerate distinct values in first-position order for run-to-run
		// determinism.
		groups := it.groups[:0]
		var vals []types.Value
		for i := range w.Vals {
			v := w.Vals[i][ref.Out]
			g := slices.IndexFunc(vals, v.Equal)
			if g < 0 {
				g = len(vals)
				vals = append(vals, v)
				groups = append(groups, splitGroup{val: v, pv: bundle.PresVec{
					SeedID: ref.SeedID, Lo: w.Lo, Bits: make([]bool, len(w.Vals)),
					Lineage: &bundle.Lineage{Out: ref.Out, Group: g},
				}})
			}
			groups[g].pv.Bits[i] = true
		}
		for g := range groups {
			groups[g].pv.Lineage.Groups = vals
		}
		it.cur = tu
		it.groups = groups
		it.gpos = 0
	}
	if len(it.out) == 0 {
		return nil, nil
	}
	it.batch.Tuples = it.out
	return &it.batch, nil
}

func (it *splitIter) Close() {
	it.child.Close()
	if it.slab != nil {
		it.ws.putSlab(it.slab)
		it.slab = nil
	}
}
