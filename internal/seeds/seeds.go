// Package seeds implements MCDB-R's tail-sampling seeds (paper §6). A
// TS-seed augments a PRNG seed with the bookkeeping the Gibbs Looper needs:
// the range of stream values materialized by the plan run, the last stream
// value ever tried by rejection sampling, and the stream position currently
// assigned to each DB version. Stream element i is a pure function of
// (seed, i), so a position outside the materialized window is drawn on
// demand from the seed's prepared sampler; the VG output rows of assigned
// positions beyond the window are cached per version, which is what lets
// the looper run without the paper's §9 replenishing runs. Seeds are
// stored by handle, the order in which the looper visits them (the paper
// merges this sorted store with a priority queue of Gibbs tuples; the
// looper indexes its in-memory tuples by handle instead), and cloning a DB
// version is a single pass copying assignment columns (paper App. A).
package seeds

import (
	"fmt"
	"slices"

	"repro/internal/prng"
	"repro/internal/types"
	"repro/internal/vg"
)

// Window holds the materialized stream elements of one TS-seed: the
// contiguous range the plan run's Instantiate operator generated.
type Window struct {
	// Lo is the first materialized position.
	Lo uint64
	// Vals[i] is the VG output row for position Lo+i.
	Vals [][]types.Value
}

// Get returns the VG output row at the given stream position.
func (w *Window) Get(pos uint64) ([]types.Value, bool) {
	if pos >= w.Lo && pos < w.Lo+uint64(len(w.Vals)) {
		return w.Vals[pos-w.Lo], true
	}
	return nil, false
}

// Contains reports whether the position is materialized.
func (w *Window) Contains(pos uint64) bool {
	return pos >= w.Lo && pos < w.Lo+uint64(len(w.Vals))
}

// End returns one past the last materialized position.
func (w *Window) End() uint64 { return w.Lo + uint64(len(w.Vals)) }

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
	// Rows caches, per DB version, the VG output row at Assign[v] when
	// that position lies outside Window (nil entries elsewhere). It is nil
	// until the looper assigns such a position, so plain Monte Carlo never
	// allocates it.
	Rows [][]types.Value
	// Cancel, when non-nil, is polled inside Materialize's fill loop so a
	// cancelled run aborts mid-window instead of generating millions more
	// stream values first. The executor wires it to the run context.
	Cancel func() error

	// The output width, the prepared sampler (nil when Gen is not a
	// vg.Preparer), its error, and the scratch substream Sample hands it;
	// see prepare.
	prepared bool
	nOut     int
	sampler  vg.Sampler
	prepErr  error
	sub      prng.Sub
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

// ValueAt generates the VG output row for a stream position on demand
// through the unprepared Generate path. It is the ground truth that
// Materialize and Sample are checked against in tests.
func (s *TSSeed) ValueAt(pos uint64) ([]types.Value, error) {
	return s.Gen.Generate(s.Params, s.Stream.At(pos))
}

// prepare parses the parameter row once: VG functions implementing
// vg.Preparer get an allocation-free sampler reused for every later draw.
func (s *TSSeed) prepare() (vg.Sampler, error) {
	if !s.prepared {
		s.prepared = true
		s.nOut = len(s.Gen.OutKinds())
		if p, ok := s.Gen.(vg.Preparer); ok && s.nOut > 0 {
			s.sampler, s.prepErr = p.Prepare(s.Params)
		}
	}
	return s.sampler, s.prepErr
}

// NumOut returns the number of VG output columns per stream element, the
// row width Sample fills.
func (s *TSSeed) NumOut() int {
	_, _ = s.prepare() // a bad parameter row surfaces on the first draw
	return s.nOut
}

// Sample writes the VG output row for a stream position into dst, which
// must have one slot per VG output. With a prepared sampler it does not
// allocate; by the vg.Preparer contract the row is bit-identical to
// ValueAt's. Sample reuses per-seed scratch, so calls on one seed must not
// run concurrently.
func (s *TSSeed) Sample(pos uint64, dst []types.Value) error {
	sampler, err := s.prepare()
	if err != nil {
		return fmt.Errorf("seeds: seed %d sample pos %d: %w", s.ID, pos, err)
	}
	if sampler == nil {
		v, err := s.ValueAt(pos)
		if err != nil {
			return fmt.Errorf("seeds: seed %d sample pos %d: %w", s.ID, pos, err)
		}
		if len(v) != len(dst) {
			return fmt.Errorf("seeds: seed %d: VG %s produced %d outputs, want %d", s.ID, s.Gen.Name(), len(v), len(dst))
		}
		copy(dst, v)
		return nil
	}
	// s.sub, not a local: passing a local's address through the Sampler
	// indirection would make it escape and cost one allocation per draw.
	s.sub = s.Stream.SubAt(pos)
	if err := sampler(&s.sub, dst); err != nil {
		return fmt.Errorf("seeds: seed %d sample pos %d: %w", s.ID, pos, err)
	}
	return nil
}

// Materialize replaces the window with the contiguous range [lo,
// lo+count). sparse must be nil: positions outside the window are drawn on
// demand (Sample) and, once assigned, cached in Rows. All output rows are
// carved from one flat value arena, and with a prepared sampler the draws
// themselves do not allocate, so a window costs O(1) allocations.
func (s *TSSeed) Materialize(lo uint64, count int, sparse []uint64) error {
	if sparse != nil {
		return fmt.Errorf("seeds: seed %d: sparse windows are not supported; positions outside the window are drawn on demand", s.ID)
	}
	sampler, err := s.prepare()
	if err != nil {
		return fmt.Errorf("seeds: seed %d materialize pos %d: %w", s.ID, lo, err)
	}
	w := Window{Lo: lo, Vals: make([][]types.Value, count)}
	arena := make([]types.Value, count*s.nOut)
	// The fill loop calls the sampler directly rather than through Sample:
	// it is plain Monte Carlo's hottest loop. sub is hoisted out of it, as
	// a per-iteration variable's address would escape through the Sampler
	// indirection and cost one allocation per element.
	var sub prng.Sub
	for i := range w.Vals {
		if i&cancelCheckMask == 0 {
			if err := s.cancelled(); err != nil {
				return err
			}
		}
		pos := lo + uint64(i)
		w.Vals[i] = arena[i*s.nOut : (i+1)*s.nOut : (i+1)*s.nOut]
		if sampler == nil {
			if err := s.Sample(pos, w.Vals[i]); err != nil {
				return err
			}
			continue
		}
		sub = s.Stream.SubAt(pos)
		if err := sampler(&sub, w.Vals[i]); err != nil {
			return fmt.Errorf("seeds: seed %d materialize pos %d: %w", s.ID, pos, err)
		}
	}
	s.Window = w
	return nil
}

// Row returns the VG output row at version v's assigned position: the
// window's row, else the cached one. ok is false when the position lies
// outside the window and nothing has been cached for it.
func (s *TSSeed) Row(v int) (row []types.Value, ok bool) {
	if row, ok := s.Window.Get(s.Assign[v]); ok {
		return row, true
	}
	if s.Rows == nil || s.Rows[v] == nil {
		return nil, false
	}
	return s.Rows[v], true
}

// SetAssign assigns stream position pos, whose VG output row is row, to
// version v. A position outside the window keeps a private copy of row in
// the per-version cache, so row may be scratch.
func (s *TSSeed) SetAssign(v int, pos uint64, row []types.Value) {
	s.Assign[v] = pos
	if s.Window.Contains(pos) {
		return
	}
	if s.Rows == nil {
		s.Rows = make([][]types.Value, len(s.Assign))
	}
	s.Rows[v] = slices.Clone(row)
}

// FillRows draws the cached row of every assigned position outside the
// window, for assignments made without one (InitAssign with more versions
// than the window holds, a loaded seed file).
func (s *TSSeed) FillRows() error {
	for v, pos := range s.Assign {
		if _, ok := s.Row(v); ok {
			continue
		}
		row := make([]types.Value, s.NumOut())
		if err := s.Sample(pos, row); err != nil {
			return err
		}
		if s.Rows == nil {
			s.Rows = make([][]types.Value, len(s.Assign))
		}
		s.Rows[v] = row
	}
	return nil
}

// Store holds all TS-seeds of a query, indexed by handle. Handles are
// dense: Alloc counts up from 0, so the handle is the slice index. The
// zero value is not usable; call NewStore.
type Store struct {
	byID []*TSSeed
}

// NewStore returns an empty seed store.
func NewStore() *Store { return &Store{} }

// Alloc creates and registers a new TS-seed with the next handle. The
// stream is derived deterministically from master, so every run of a
// query plan (and every replicate shard's run) allocates identical seeds
// in identical order.
func (st *Store) Alloc(master prng.Stream, gen vg.Func, params []types.Value) *TSSeed {
	id := uint64(len(st.byID))
	s := &TSSeed{ID: id, Stream: master.Derive(id), Gen: gen, Params: params}
	st.byID = append(st.byID, s)
	return s
}

// MustGet returns the seed or panics; for engine-internal handles.
func (st *Store) MustGet(id uint64) *TSSeed {
	if id >= uint64(len(st.byID)) {
		panic(fmt.Sprintf("seeds: unknown handle %d", id))
	}
	return st.byID[id]
}

// Len returns the number of seeds.
func (st *Store) Len() int { return len(st.byID) }

// IDs returns all handles in ascending order.
func (st *Store) IDs() []uint64 {
	out := make([]uint64, len(st.byID))
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// InitAssign sets every seed's assignment to the identity mapping
// (version v uses stream position v) for n versions, and MaxUsed = n-1 —
// the paper's initial mapping "the i-th value in each stream is mapped to
// the i-th DB version".
func (st *Store) InitAssign(n int) { st.InitAssignAt(0, n) }

// InitAssignAt is InitAssign shifted to a shard base: version v uses
// stream position base+v, and MaxUsed = base+n-1. Replicate-sharded
// parallel execution uses it so a worker handling replicates [base,
// base+n) evaluates exactly the stream positions the sequential engine
// would assign to those replicates. It drops every row cache; positions
// outside a window need FillRows before they are read.
func (st *Store) InitAssignAt(base uint64, n int) {
	for _, s := range st.byID {
		s.Assign = make([]uint64, n)
		s.Rows = nil
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
// layout of the paper's Fig. 1(b). Cached rows travel with their
// assignments (clones share them; cached rows are never mutated). This is
// the single read/write pass over the TS-seed file described in Appendix A.
func (st *Store) CloneVersions(elite []int, newN int) error {
	if len(elite) == 0 {
		return fmt.Errorf("seeds: CloneVersions with empty elite set")
	}
	if newN <= 0 {
		return fmt.Errorf("seeds: CloneVersions to %d versions", newN)
	}
	e := len(elite)
	for _, s := range st.byID {
		for _, v := range elite {
			if v < 0 || v >= len(s.Assign) {
				return fmt.Errorf("seeds: elite version %d out of range (seed %d has %d versions)", v, s.ID, len(s.Assign))
			}
		}
		na := make([]uint64, newN)
		for j := 0; j < newN; j++ {
			na[j] = s.Assign[elite[j*e/newN]]
		}
		if s.Rows != nil {
			nr := make([][]types.Value, newN)
			for j := 0; j < newN; j++ {
				nr[j] = s.Rows[elite[j*e/newN]]
			}
			s.Rows = nr
		}
		s.Assign = na
	}
	return nil
}
