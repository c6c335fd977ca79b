// Package seeds implements MCDB-R's tail-sampling seeds (paper §6). A
// TS-seed augments a PRNG seed with the bookkeeping the Gibbs Looper needs:
// the range of stream values currently materialized, the last stream value
// ever tried by rejection sampling, and the stream position currently
// assigned to each DB version. Seeds are stored sorted by handle, the order
// in which the looper visits them (the paper merges this sorted store with a
// priority queue of Gibbs tuples; the looper indexes its in-memory tuples by
// handle instead), and cloning a DB version is a single pass copying
// assignment columns (paper App. A).
package seeds

import (
	"fmt"
	"sort"

	"repro/internal/prng"
	"repro/internal/types"
	"repro/internal/vg"
)

// Window holds the materialized stream elements of one TS-seed. After a
// replenishing run (paper §9) the window is no longer contiguous: it covers
// a fresh contiguous segment of never-processed positions plus the sparse
// set of positions still assigned to some DB version.
type Window struct {
	// Lo is the first position of the contiguous segment.
	Lo uint64
	// Vals holds the contiguous segment: Vals[i] is the VG output row for
	// position Lo+i.
	Vals [][]types.Value
	// Sparse holds still-assigned positions below Lo that survived a
	// replenishing run.
	Sparse map[uint64][]types.Value
}

// Get returns the VG output row at the given stream position.
func (w *Window) Get(pos uint64) ([]types.Value, bool) {
	if pos >= w.Lo && pos < w.Lo+uint64(len(w.Vals)) {
		return w.Vals[pos-w.Lo], true
	}
	v, ok := w.Sparse[pos]
	return v, ok
}

// Contains reports whether the position is materialized.
func (w *Window) Contains(pos uint64) bool {
	_, ok := w.Get(pos)
	return ok
}

// End returns one past the last contiguous position.
func (w *Window) End() uint64 { return w.Lo + uint64(len(w.Vals)) }

// Positions returns all materialized positions in ascending order.
func (w *Window) Positions() []uint64 {
	out := make([]uint64, 0, len(w.Vals)+len(w.Sparse))
	for p := range w.Sparse {
		out = append(out, p)
	}
	for i := range w.Vals {
		out = append(out, w.Lo+uint64(i))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TSSeed is one tail-sampling seed (paper §6): it identifies a stream of VG
// outputs and tracks which stream position each DB version currently uses.
type TSSeed struct {
	// ID is the seed handle; the Gibbs Looper processes seeds in
	// increasing handle order.
	ID uint64
	// Stream is the underlying pseudorandom stream.
	Stream prng.Stream
	// Gen is the VG function that interprets the stream.
	Gen vg.Func
	// Params is the parameter row the VG function is invoked with.
	Params []types.Value
	// Window is the materialized range of stream values (item 3 in §6).
	Window Window
	// MaxUsed is the largest stream position ever tried for any DB
	// version (item 4) — the rejection sampler resumes from MaxUsed+1.
	MaxUsed uint64
	// Assign maps DB version index -> currently assigned stream position
	// (item 5).
	Assign []uint64
	// Cancel, when non-nil, is polled inside Materialize's fill loop so a
	// cancelled run aborts mid-window instead of generating millions more
	// stream values first. The executor wires it to the run context.
	Cancel func() error
}

// cancelCheckMask throttles Cancel polling to every 16Ki window elements:
// frequent enough that a multi-million-element window aborts within
// milliseconds of cancellation, rare enough to be free next to sampling.
const cancelCheckMask = 1<<14 - 1

func (s *TSSeed) cancelled() error {
	if s.Cancel == nil {
		return nil
	}
	return s.Cancel()
}

// ValueAt generates the VG output row for a stream position on demand.
// Materialize uses it to fill windows; it is also the ground truth that
// window contents are checked against in tests.
func (s *TSSeed) ValueAt(pos uint64) ([]types.Value, error) {
	return s.Gen.Generate(s.Params, s.Stream.At(pos))
}

// Materialize fills the window with the contiguous range [lo, lo+count) plus
// the given sparse positions (used by replenishing runs to keep currently
// assigned values available). Existing window contents are replaced.
//
// VG functions implementing vg.Preparer take the fast path: the parameter
// row is parsed once and all output rows are carved from one flat value
// arena, so a window costs O(1) allocations instead of several per
// element. Both paths produce bit-identical values (vg.Preparer contract).
func (s *TSSeed) Materialize(lo uint64, count int, sparse []uint64) error {
	w := Window{Lo: lo, Vals: make([][]types.Value, count)}
	nOut := len(s.Gen.OutKinds())
	var sampler vg.Sampler
	if p, ok := s.Gen.(vg.Preparer); ok && nOut > 0 && count > 0 {
		sp, err := p.Prepare(s.Params)
		if err != nil {
			return fmt.Errorf("seeds: seed %d materialize pos %d: %w", s.ID, lo, err)
		}
		sampler = sp
	}
	if sampler != nil {
		arena := make([]types.Value, count*nOut)
		// sub is hoisted out of the loop: passing a per-iteration variable's
		// address through the Sampler indirection would make it escape and
		// cost one heap allocation per element.
		var sub prng.Sub
		for i := 0; i < count; i++ {
			if i&cancelCheckMask == 0 {
				if err := s.cancelled(); err != nil {
					return err
				}
			}
			dst := arena[i*nOut : (i+1)*nOut : (i+1)*nOut]
			sub = s.Stream.SubAt(lo + uint64(i))
			if err := sampler(&sub, dst); err != nil {
				return fmt.Errorf("seeds: seed %d materialize pos %d: %w", s.ID, lo+uint64(i), err)
			}
			w.Vals[i] = dst
		}
	} else {
		for i := 0; i < count; i++ {
			if i&cancelCheckMask == 0 {
				if err := s.cancelled(); err != nil {
					return err
				}
			}
			v, err := s.ValueAt(lo + uint64(i))
			if err != nil {
				return fmt.Errorf("seeds: seed %d materialize pos %d: %w", s.ID, lo+uint64(i), err)
			}
			w.Vals[i] = v
		}
	}
	if len(sparse) > 0 {
		w.Sparse = make(map[uint64][]types.Value, len(sparse))
		for _, p := range sparse {
			if p >= lo && p < lo+uint64(count) {
				continue
			}
			v, err := s.ValueAt(p)
			if err != nil {
				return fmt.Errorf("seeds: seed %d materialize sparse pos %d: %w", s.ID, p, err)
			}
			w.Sparse[p] = v
		}
	}
	s.Window = w
	return nil
}

// AssignedPositions returns the distinct stream positions currently assigned
// to any DB version, ascending.
func (s *TSSeed) AssignedPositions() []uint64 {
	set := make(map[uint64]struct{}, len(s.Assign))
	for _, p := range s.Assign {
		set[p] = struct{}{}
	}
	out := make([]uint64, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Store holds all TS-seeds of a query, ordered by handle. The zero value is
// not usable; call NewStore.
type Store struct {
	byID  map[uint64]*TSSeed
	order []uint64 // sorted handles
	next  uint64   // next handle to allocate
}

// NewStore returns an empty seed store.
func NewStore() *Store {
	return &Store{byID: make(map[uint64]*TSSeed)}
}

// Alloc creates and registers a new TS-seed with the next handle. The
// stream is derived deterministically from master so that re-running a
// query plan (replenishment, §9) reproduces identical seeds in identical
// order.
func (st *Store) Alloc(master prng.Stream, gen vg.Func, params []types.Value) *TSSeed {
	id := st.next
	st.next++
	if existing, ok := st.byID[id]; ok {
		// Replenishing run re-allocating the same handle: the pipeline is
		// deterministic, so this must be the same logical seed. Keep all
		// bookkeeping (assignments, MaxUsed); refresh definition.
		existing.Gen = gen
		existing.Params = params
		return existing
	}
	s := &TSSeed{ID: id, Stream: master.Derive(id), Gen: gen, Params: params}
	st.byID[id] = s
	st.order = append(st.order, id)
	return s
}

// ResetAlloc rewinds the handle allocator for a replenishing run; Alloc
// calls will then revisit existing seeds in the original order.
func (st *Store) ResetAlloc() { st.next = 0 }

// Get returns the seed with the given handle.
func (st *Store) Get(id uint64) (*TSSeed, bool) {
	s, ok := st.byID[id]
	return s, ok
}

// MustGet returns the seed or panics; for engine-internal handles.
func (st *Store) MustGet(id uint64) *TSSeed {
	s, ok := st.byID[id]
	if !ok {
		panic(fmt.Sprintf("seeds: unknown handle %d", id))
	}
	return s
}

// Len returns the number of seeds.
func (st *Store) Len() int { return len(st.byID) }

// IDs returns all handles in ascending order.
func (st *Store) IDs() []uint64 { return append([]uint64(nil), st.order...) }

// InitAssign sets every seed's assignment to the identity mapping
// (version v uses stream position v) for n versions, and MaxUsed = n-1 —
// the paper's initial mapping "the i-th value in each stream is mapped to
// the i-th DB version".
func (st *Store) InitAssign(n int) { st.InitAssignAt(0, n) }

// InitAssignAt is InitAssign shifted to a shard base: version v uses
// stream position base+v, and MaxUsed = base+n-1. Replicate-sharded
// parallel execution uses it so a worker handling replicates [base,
// base+n) evaluates exactly the stream positions the sequential engine
// would assign to those replicates.
func (st *Store) InitAssignAt(base uint64, n int) {
	for _, id := range st.order {
		s := st.byID[id]
		s.Assign = make([]uint64, n)
		for v := 0; v < n; v++ {
			s.Assign[v] = base + uint64(v)
		}
		if n > 0 {
			s.MaxUsed = base + uint64(n-1)
		}
	}
}

// CloneVersions overwrites all seeds' assignment columns with clones of the
// elite versions, resizing to newN versions. Elite version j of the old
// assignment is copied to new versions [j*newN/e, (j+1)*newN/e) — the block
// layout of the paper's Fig. 1(b). This is the single read/write pass over
// the TS-seed file described in Appendix A.
func (st *Store) CloneVersions(elite []int, newN int) error {
	if len(elite) == 0 {
		return fmt.Errorf("seeds: CloneVersions with empty elite set")
	}
	if newN <= 0 {
		return fmt.Errorf("seeds: CloneVersions to %d versions", newN)
	}
	e := len(elite)
	for _, id := range st.order {
		s := st.byID[id]
		for _, v := range elite {
			if v < 0 || v >= len(s.Assign) {
				return fmt.Errorf("seeds: elite version %d out of range (seed %d has %d versions)", v, id, len(s.Assign))
			}
		}
		na := make([]uint64, newN)
		for j := 0; j < newN; j++ {
			na[j] = s.Assign[elite[j*e/newN]]
		}
		s.Assign = na
	}
	return nil
}
