// Deterministic-prefix materialization. MCDB-R's performance story is that
// the deterministic part of a query plan is paid once while only random
// attributes are re-instantiated per Monte Carlo repetition (paper §5).
// The planner marks maximal randomness-free subtrees and lowers them to a
// Materialize node; its result depends only on the catalog contents, never
// on the master seed, the stream window, or the replicate shard — so it
// can be shared read-only across shard workers of one run and across runs
// of one engine. The engine keeps a bounded LRU of these results keyed by
// subtree fingerprint and invalidated by the DDL epoch.

package exec

import (
	"container/list"
	"sync"

	"repro/internal/bundle"
	"repro/internal/types"
)

// Materialize caches the output of a deterministic subtree. Within one
// workspace the result is computed at most once (Workspace.Run's
// materialization cache); with an engine-level prefix cache attached to
// the workspace, re-executions — prepared queries, repeated server
// statements, sibling shard workers — skip the subtree entirely and share
// one read-only tuple batch. Tuples below a Materialize are never mutated
// by operators above it, which is what makes the sharing sound.
type Materialize struct {
	Child Node
	// Fingerprint canonically identifies the subtree (plan.Fingerprint);
	// it is the engine-level cache key. Empty disables engine-level
	// caching for this node (workspace-level caching still applies).
	Fingerprint string
}

// Schema implements Node.
func (m *Materialize) Schema() *types.Schema { return m.Child.Schema() }

// Deterministic implements Node.
func (m *Materialize) Deterministic() bool { return true }

// Children implements Node.
func (m *Materialize) Children() []Node { return []Node{m.Child} }

func (m *Materialize) String() string { return "Materialize" }

// Open implements Node. Materialize is the pipeline's deterministic sink:
// the first Open of a run drains the child subtree into the workspace's
// pinned slab (through the engine prefix cache when one is attached), and
// every Open serves the materialized result back in batches. Those batches
// are durable — valid for the whole workspace lifetime, not just until the
// next Next — so consumers above may hold their tuples without copying.
func (m *Materialize) Open(ws *Workspace) (Iterator, error) {
	out, ok := ws.matCache[m]
	if !ok {
		var err error
		compute := func() ([]*bundle.Tuple, error) {
			return ws.drainNode(m.Child, ws.keep)
		}
		if ws.Prefix != nil && m.Fingerprint != "" {
			out, err = ws.Prefix.Do(m.Fingerprint, compute)
		} else {
			out, err = compute()
		}
		if err != nil {
			return nil, err
		}
		ws.matCache[m] = out
	}
	return &matIter{ws: ws, tuples: out}, nil
}

// matIter serves a materialized result in batch-size slices.
type matIter struct {
	ws     *Workspace
	tuples []*bundle.Tuple
	pos    int
	batch  Batch
}

func (it *matIter) Next() (*Batch, error) {
	if err := it.ws.checkBudget(); err != nil {
		return nil, err
	}
	if it.pos >= len(it.tuples) {
		return nil, nil
	}
	n := len(it.tuples) - it.pos
	if bs := it.ws.batchSize(); n > bs {
		n = bs
	}
	it.batch.Tuples = it.tuples[it.pos : it.pos+n]
	it.pos += n
	return &it.batch, nil
}

func (it *matIter) Close() {}

func (it *matIter) durableBatches() bool { return true }

// PrefixCache is the engine-level deterministic-prefix materialization
// cache: a bounded, mutex-guarded LRU of materialized subtree results
// keyed by plan fingerprint. Entries carry the DDL epoch they were
// computed under; a lookup from a later epoch misses (and evicts), so
// definition changes invalidate stale results. Concurrent first
// computations of one fingerprint are collapsed (single-flight): one
// caller computes, the others wait and share the result.
//
// A PrefixCache belongs to exactly one engine. Results must never be
// shared across engines — fingerprints say nothing about catalog
// contents, which the per-engine epoch tracks.
type PrefixCache struct {
	mu       sync.Mutex
	cap      int
	order    *list.List // *prefixEntry, most recently used first
	entries  map[string]*list.Element
	inflight map[string]*prefixCall
	hits     uint64
	misses   uint64
}

type prefixEntry struct {
	key    string
	epoch  uint64
	tuples []*bundle.Tuple
}

type prefixCall struct {
	epoch  uint64
	done   chan struct{}
	tuples []*bundle.Tuple
	err    error
}

// NewPrefixCache builds an empty cache; cap <= 0 selects 64.
func NewPrefixCache(cap int) *PrefixCache {
	if cap <= 0 {
		cap = 64
	}
	return &PrefixCache{
		cap:      cap,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*prefixCall),
	}
}

// Handle returns the cache view for one query run, pinned to the DDL
// epoch the run started under. Attach it to the run's Workspace (and, via
// ShardWorkspace, to every shard worker's).
func (c *PrefixCache) Handle(epoch uint64) *PrefixHandle {
	return &PrefixHandle{c: c, epoch: epoch}
}

// Stats reports lifetime hit and miss counts and the current entry count.
func (c *PrefixCache) Stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}

// PrefixHandle is a PrefixCache scoped to one run's DDL epoch.
type PrefixHandle struct {
	c     *PrefixCache
	epoch uint64
}

// Do returns the cached result for key, or runs compute (at most once
// across concurrent callers of the same key and epoch) and caches it.
// Results computed under a different epoch are never returned.
func (h *PrefixHandle) Do(key string, compute func() ([]*bundle.Tuple, error)) ([]*bundle.Tuple, error) {
	c := h.c
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*prefixEntry)
		if e.epoch == h.epoch {
			c.order.MoveToFront(el)
			c.hits++
			c.mu.Unlock()
			return e.tuples, nil
		}
		// Computed under an older catalog: evict.
		c.order.Remove(el)
		delete(c.entries, key)
	}
	if call, ok := c.inflight[key]; ok && call.epoch == h.epoch {
		c.hits++
		c.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, call.err
		}
		return call.tuples, nil
	}
	c.misses++
	call := &prefixCall{epoch: h.epoch, done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	tuples, err := compute()

	c.mu.Lock()
	// Only the call still registered as the in-flight computation for the
	// key may store its result: a later-epoch caller may have superseded
	// this one (replacing c.inflight[key]), and storing the stale result
	// over the fresh entry would both serve outdated data and orphan the
	// fresh entry's LRU element.
	mine := c.inflight[key] == call
	if mine {
		delete(c.inflight, key)
	}
	if err == nil && mine {
		if el, ok := c.entries[key]; ok {
			c.order.Remove(el)
			delete(c.entries, key)
		}
		c.entries[key] = c.order.PushFront(&prefixEntry{key: key, epoch: h.epoch, tuples: tuples})
		for c.order.Len() > c.cap {
			back := c.order.Back()
			c.order.Remove(back)
			delete(c.entries, back.Value.(*prefixEntry).key)
		}
	}
	call.tuples, call.err = tuples, err
	close(call.done)
	c.mu.Unlock()
	return tuples, err
}
