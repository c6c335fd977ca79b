// Package mcdbr is the public API of the MCDB-R reproduction: a Monte
// Carlo database engine with in-database risk analysis (tail sampling) as
// described in "MCDB-R: Risk Analysis in the Database" (Arumugam et al.,
// PVLDB 3(1), 2010).
//
// An Engine holds ordinary ("parameter") tables, VG functions, and random
// table definitions (the paper's CREATE TABLE ... FOR EACH statements).
// Queries are posed either through the fluent QueryBuilder or as SQL-ish
// text (the §2 surface syntax) via Exec. Results are either a plain Monte
// Carlo result distribution (original MCDB semantics) or a conditioned
// tail distribution with an extreme-quantile estimate (MCDB-R's DOMAIN ...
// QUANTILE clause).
package mcdbr

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/storage"
	"repro/internal/vg"
)

// ErrMemoryBudget is the sentinel wrapped by query errors when a run's
// tuple arenas exceed the memory budget set by WithMaxQueryBytes or
// RunOptions.MaxBytes; test with errors.Is.
var ErrMemoryBudget = exec.ErrMemoryBudget

// Engine is a Monte Carlo database instance. Create one with New.
//
// An Engine is safe for concurrent use: any number of goroutines may call
// Exec, ExecWithOptions, Prepare, PreparedQuery.Run, Explain, and the
// QueryBuilder execution methods on one shared Engine. Per-query state
// (workspaces, TS-seed stores, materialization caches) is private to each
// call; the shared catalog, VG registry, and random-table definitions are
// guarded by locks. DDL (RegisterTable, DefineRandomTable, CREATE TABLE
// statements, FREQUENCYTABLE registration) is atomic: a concurrent query
// sees the state either before or after a definition, never a partial one.
// Registered tables must not be mutated after registration — replace them
// with RegisterTable instead.
type Engine struct {
	cat *storage.Catalog
	vgs *vg.Registry

	// seed, window, parallelism, batchSize, maxQueryBytes, and noKernels
	// are set by New options only and are immutable afterwards, so queries
	// read them without locking.
	seed          uint64
	window        int
	parallelism   int
	batchSize     int
	maxQueryBytes int64
	noKernels     bool

	// mu guards rand and ddlEpoch. The catalog and VG registry carry their
	// own locks; mu is the engine-level lock for definition state and is
	// always acquired before (never inside) the catalog lock.
	mu       sync.RWMutex
	rand     map[string]*RandomTable
	ddlEpoch uint64
	// dataEpoch advances at least as often as ddlEpoch: it additionally
	// counts catalog content changes that keep the schema (an FTABLE
	// re-registration with new values). The plan cache keys on ddlEpoch
	// (plans embed no data); the deterministic-prefix cache keys on
	// dataEpoch (materialized results embed table contents).
	dataEpoch uint64

	plans *planCache
	// prefixes caches materialized deterministic-prefix results (see
	// exec.PrefixCache) behind the same DDL-epoch invalidation as the plan
	// cache; nil when disabled via WithPrefixCacheSize.
	prefixes *exec.PrefixCache
	// slabs recycles per-operator scratch slabs across runs, so a short
	// query opens with warm arena chunks instead of growing fresh ones.
	slabs *exec.SlabPool
}

// Option configures an Engine.
type Option func(*Engine)

// WithSeed fixes the engine's master PRNG seed; runs with equal seeds are
// bit-for-bit reproducible.
func WithSeed(seed uint64) Option { return func(e *Engine) { e.seed = seed } }

// WithWindow sets how many stream values each TS-seed materializes in the
// query plan's single run (the paper's "1000 random values initially").
// Tail sampling never re-runs the plan: it draws positions beyond the
// window when it proposes them and re-derives their presence from lineage,
// so the window trades up-front memory against that on-demand work.
// Results do not depend on it.
func WithWindow(n int) Option { return func(e *Engine) { e.window = n } }

// WithParallelism sets how many worker goroutines query execution may use:
// Monte Carlo repetitions are replicate-sharded across workers, and tail
// sampling recomputes version states in parallel. Results are bit-for-bit
// identical for every worker count. 1 selects sequential execution; n <= 0
// selects runtime.NumCPU() (the default).
func WithParallelism(n int) Option {
	return func(e *Engine) {
		if n <= 0 {
			n = runtime.NumCPU()
		}
		e.parallelism = n
	}
}

// Parallelism reports the engine's worker count.
func (e *Engine) Parallelism() int { return e.parallelism }

// WithBatchSize sets how many tuples the streaming executor carries per
// batch (see DESIGN.md §9); n <= 0 selects the default of 1024. Batch
// boundaries are semantically invisible: results are bit-for-bit identical
// for every batch size.
func WithBatchSize(n int) Option {
	return func(e *Engine) {
		if n <= 0 {
			n = 0 // executor default
		}
		e.batchSize = n
	}
}

// WithMaxQueryBytes bounds the executor memory one query run may hold in
// tuple arenas. A run that would exceed the budget fails with an error
// wrapping ErrMemoryBudget instead of exhausting process memory; n <= 0
// (the default) disables the bound. Per-run overrides are available via
// RunOptions.MaxBytes.
func WithMaxQueryBytes(n int64) Option {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.maxQueryBytes = n
	}
}

// WithVectorizedKernels toggles the typed vectorized expression kernels
// (DESIGN.md §13). On by default; off forces the closure-tree interpreter
// everywhere. Results are bit-for-bit identical either way — the switch
// exists for differential testing and interpreter-vs-kernel benchmarks.
func WithVectorizedKernels(on bool) Option {
	return func(e *Engine) { e.noKernels = !on }
}

// WithPlanCacheSize sets how many prepared plans the engine's LRU plan
// cache retains (see Prepare); n <= 0 selects the default of 64.
func WithPlanCacheSize(n int) Option {
	return func(e *Engine) { e.plans = newPlanCache(n) }
}

// WithPrefixCacheSize sets how many materialized deterministic-prefix
// results the engine retains (LRU, invalidated by DDL). n == 0 selects
// the default of 64; n < 0 disables the cache entirely — results stay
// bit-identical either way, the cache only changes how often the
// deterministic part of a plan is recomputed.
func WithPrefixCacheSize(n int) Option {
	return func(e *Engine) {
		if n < 0 {
			e.prefixes = nil
			return
		}
		e.prefixes = exec.NewPrefixCache(n)
	}
}

// PrefixCacheStats reports the deterministic-prefix cache's lifetime hit
// and miss counts and its current size; all zero when the cache is
// disabled.
func (e *Engine) PrefixCacheStats() (hits, misses uint64, size int) {
	if e.prefixes == nil {
		return 0, 0, 0
	}
	return e.prefixes.Stats()
}

// newRunWorkspace builds the per-run workspace with the engine's
// streaming configuration attached: the deterministic-prefix cache
// handle, the engine batch size, and the run's memory budget (0 = no
// bound). ShardWorkspace propagates batch size and budget to replicate
// workers, which charge the run's shared gauge.
func (e *Engine) newRunWorkspace(seed uint64, window int, maxBytes int64) *exec.Workspace {
	ws := exec.NewWorkspace(e.cat, prng.NewStream(seed), window)
	ws.Prefix = e.prefixHandle()
	ws.BatchSize = e.batchSize
	ws.Slabs = e.slabs
	ws.MaxBytes = maxBytes
	ws.DisableKernels = e.noKernels
	return ws
}

// prefixHandle returns the per-run view of the deterministic-prefix cache,
// pinned to the current data epoch; nil when the cache is disabled.
func (e *Engine) prefixHandle() *exec.PrefixHandle {
	if e.prefixes == nil {
		return nil
	}
	e.mu.RLock()
	epoch := e.dataEpoch
	e.mu.RUnlock()
	return e.prefixes.Handle(epoch)
}

// New creates an empty engine with all built-in VG functions registered.
func New(opts ...Option) *Engine {
	e := &Engine{
		cat:         storage.NewCatalog(),
		vgs:         vg.NewRegistry(),
		rand:        make(map[string]*RandomTable),
		seed:        0x6d636462, // "mcdb"
		window:      1024,
		parallelism: runtime.NumCPU(),
		plans:       newPlanCache(0),
		prefixes:    exec.NewPrefixCache(0),
		slabs:       exec.NewSlabPool(),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// RegisterTable adds (or replaces) an ordinary table. The table must not
// be mutated afterwards; concurrent queries read it without locking.
func (e *Engine) RegisterTable(t *storage.Table) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cat.Put(t)
	e.ddlEpoch++
	e.dataEpoch++
}

// RegisterVG adds a user-defined VG function (the paper's black-box
// variable-generation functions).
func (e *Engine) RegisterVG(f vg.Func) {
	e.vgs.Register(f)
	e.mu.Lock()
	e.ddlEpoch++
	e.dataEpoch++
	e.mu.Unlock()
}

// VGNames returns the registered VG function names, sorted.
func (e *Engine) VGNames() []string { return e.vgs.Names() }

// epoch returns the DDL epoch: a counter bumped by every definition change
// that can invalidate a cached plan (table or VG registration, random-table
// definition, FTABLE schema change).
func (e *Engine) epoch() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ddlEpoch
}

// randomDef looks up a random-table definition under the engine lock.
func (e *Engine) randomDef(name string) (*RandomTable, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rt, ok := e.rand[strings.ToLower(name)]
	return rt, ok
}

// RandomTableNames returns the names of all defined random tables, sorted.
func (e *Engine) RandomTableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.rand))
	for n := range e.rand {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table looks up an ordinary table.
func (e *Engine) Table(name string) (*storage.Table, bool) { return e.cat.Get(name) }

// Catalog exposes the table catalog (read-mostly helper for tools).
func (e *Engine) Catalog() *storage.Catalog { return e.cat }

// RandomCol maps one column of a random table to its source: either a
// column of the parameter table (FromParam) or an output of the VG
// function (VGOut, used when FromParam is empty).
type RandomCol struct {
	Name      string
	FromParam string
	VGOut     int
}

// RandomTable is the engine-level form of the paper's §2 statement
//
//	CREATE TABLE Losses(CID, val) AS
//	FOR EACH CID IN means
//	WITH myVal AS Normal(VALUES(m, 1.0))
//	SELECT CID, myVal.* FROM myVal
//
// Name="losses", ParamTable="means", VG="Normal",
// VGParams=[C("m"), F(1.0)], Columns=[{CID, "cid", 0}, {val, "", 0}].
type RandomTable struct {
	Name       string
	ParamTable string
	VG         string
	// VGParams are evaluated against each parameter-table row.
	VGParams []expr.Expr
	Columns  []RandomCol
}

// DefineRandomTable registers an uncertain table definition. Only the
// schema is stored — instances are generated at query time, exactly as in
// the paper.
func (e *Engine) DefineRandomTable(rt RandomTable) error {
	if rt.Name == "" {
		return fmt.Errorf("mcdbr: random table needs a name")
	}
	if _, ok := e.cat.Get(rt.ParamTable); !ok {
		return fmt.Errorf("mcdbr: parameter table %q not registered", rt.ParamTable)
	}
	gen, ok := e.vgs.Lookup(rt.VG)
	if !ok {
		return fmt.Errorf("mcdbr: VG function %q not registered", rt.VG)
	}
	if gen.Arity() >= 0 && len(rt.VGParams) != gen.Arity() {
		return fmt.Errorf("mcdbr: VG %s needs %d parameters, got %d", rt.VG, gen.Arity(), len(rt.VGParams))
	}
	if len(rt.Columns) == 0 {
		return fmt.Errorf("mcdbr: random table %q needs at least one column", rt.Name)
	}
	param, _ := e.cat.Get(rt.ParamTable)
	nOut := len(gen.OutKinds())
	hasRandom := false
	for _, c := range rt.Columns {
		if c.FromParam != "" {
			if param.Schema().Lookup(c.FromParam) < 0 {
				return fmt.Errorf("mcdbr: column %q of %q maps to unknown parameter column %q", c.Name, rt.Name, c.FromParam)
			}
			continue
		}
		if c.VGOut < 0 || c.VGOut >= nOut {
			return fmt.Errorf("mcdbr: column %q of %q maps to VG output %d of %d", c.Name, rt.Name, c.VGOut, nOut)
		}
		hasRandom = true
	}
	if !hasRandom {
		return fmt.Errorf("mcdbr: random table %q exposes no VG output; use an ordinary table", rt.Name)
	}
	e.mu.Lock()
	e.rand[strings.ToLower(rt.Name)] = &rt
	e.ddlEpoch++
	e.dataEpoch++
	e.mu.Unlock()
	return nil
}

// RandomTableDef looks up a random-table definition.
func (e *Engine) RandomTableDef(name string) (*RandomTable, bool) {
	return e.randomDef(name)
}
