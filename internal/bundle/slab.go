package bundle

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/types"
)

// MemGauge is a shared, atomically-updated byte counter for slab arena
// memory. Every slab of one query run (including the private slabs of
// replicate-shard workers) points at the same gauge, so the executor's
// per-run memory budget (exec.Workspace.MaxBytes) sees the query's total
// arena footprint. Chunks are charged when freshly allocated, never on
// free-list reuse, and are never un-charged: a slab's chunks live until
// the slab itself is garbage, so the gauge tracks the high-water arena
// footprint of the run.
type MemGauge struct{ bytes atomic.Int64 }

// Load returns the bytes charged so far.
func (g *MemGauge) Load() int64 { return g.bytes.Load() }

// Add charges n bytes; nil-safe so ungauged slabs cost nothing.
func (g *MemGauge) Add(n int64) {
	if g != nil {
		g.bytes.Add(n)
	}
}

// Chunk sizing for the three slab arenas: each arena starts with a small
// chunk and doubles per growth up to the max, so a ten-tuple serving
// query does not pay for a megabyte of arena while a million-tuple scan
// settles into large chunks after a few doublings. Values dominate (every
// tuple row lives here), so their max chunk is the largest.
const (
	slabFirstChunk    = 64
	slabMaxValChunk   = 8192
	slabMaxTupleChunk = 1024
	slabMaxRefChunk   = 1024
)

// Slab is an arena allocator for the exec hot path: instead of one
// allocation per tuple (a Tuple header, a Det row, a RandRef slice), plan
// operators carve tuples, rows, and reference slices out of large chunks,
// reducing the allocation count of a plan run from O(tuples) to O(chunks).
//
// A Slab is single-goroutine (each exec.Workspace owns its slabs, and a
// workspace is confined to one worker), so no locking is needed and -race
// stays clean. Reset recycles all chunks through free lists, zeroing them
// first — the zero Value is NULL and the zero Tuple is empty, so recycled
// memory is indistinguishable from fresh memory. Callers must therefore
// only Reset a slab when nothing allocated from it is reachable anymore
// (operators reset their per-operator slab at each batch and when it goes
// back to the pool; the workspace never resets the slab Retain uses).
//
// All returned slices are capacity-limited to their length, so appending
// to one can never clobber a neighbouring allocation.
type Slab struct {
	// vals, tuples, refs are cursors into the most recently grown chunk;
	// the full chunks themselves are recorded in used* the moment they are
	// grown, so Reset can zero and recycle them wholesale.
	vals   []types.Value
	tuples []Tuple
	refs   []RandRef

	usedVals   [][]types.Value
	usedTuples [][]Tuple
	usedRefs   [][]RandRef

	freeVals   [][]types.Value
	freeTuples [][]Tuple
	freeRefs   [][]RandRef

	// next*Chunk implement the doubling schedule.
	nextValChunk   int
	nextTupleChunk int
	nextRefChunk   int

	// gauge, when non-nil, is charged for every freshly allocated chunk
	// (see MemGauge); free-list reuse is free.
	gauge *MemGauge
	// capBytes totals the bytes of every chunk the slab owns (used and
	// free); AdoptGauge charges it when the slab moves to another run.
	capBytes int64
}

// NewSlab returns an empty slab; chunks are allocated lazily.
func NewSlab() *Slab { return &Slab{} }

// SetGauge attaches the byte gauge charged for fresh chunk allocations.
func (s *Slab) SetGauge(g *MemGauge) { s.gauge = g }

// CapBytes returns the total bytes of arena chunks the slab owns.
func (s *Slab) CapBytes() int64 { return s.capBytes }

// AdoptGauge moves a recycled slab to a new run's gauge, charging the
// chunks it already owns: a pooled slab must cost the adopting run what
// a fresh slab growing the same chunks would, so the memory budget stays
// independent of pool history. No-op when the slab already charges g.
func (s *Slab) AdoptGauge(g *MemGauge) {
	if s.gauge == g {
		return
	}
	s.gauge = g
	g.Add(s.capBytes)
}

// charge records a freshly allocated chunk of n bytes.
func (s *Slab) charge(n int64) {
	s.capBytes += n
	s.gauge.Add(n)
}

// Row returns a zeroed row of width w (every slot is NULL), carved from
// the value arena.
func (s *Slab) Row(w int) types.Row {
	if w == 0 {
		return types.Row{}
	}
	if len(s.vals) < w {
		s.growVals(w)
	}
	r := s.vals[:w:w]
	s.vals = s.vals[w:]
	return types.Row(r)
}

func (s *Slab) growVals(w int) {
	var chunk []types.Value
	if k := len(s.freeVals); k > 0 && len(s.freeVals[k-1]) >= w {
		chunk = s.freeVals[k-1]
		s.freeVals = s.freeVals[:k-1]
	} else {
		if s.nextValChunk == 0 {
			s.nextValChunk = slabFirstChunk
		}
		n := s.nextValChunk
		if s.nextValChunk < slabMaxValChunk {
			s.nextValChunk *= 2
		}
		if w > n {
			n = w
		}
		chunk = make([]types.Value, n)
		s.charge(int64(n) * int64(unsafe.Sizeof(types.Value{})))
	}
	s.usedVals = append(s.usedVals, chunk)
	s.vals = chunk
}

// Tuple returns a fresh zeroed tuple from the tuple arena.
func (s *Slab) Tuple() *Tuple {
	if len(s.tuples) == 0 {
		s.growTuples()
	}
	t := &s.tuples[0]
	s.tuples = s.tuples[1:]
	return t
}

func (s *Slab) growTuples() {
	var chunk []Tuple
	if k := len(s.freeTuples); k > 0 {
		chunk = s.freeTuples[k-1]
		s.freeTuples = s.freeTuples[:k-1]
	} else {
		if s.nextTupleChunk == 0 {
			s.nextTupleChunk = slabFirstChunk
		}
		n := s.nextTupleChunk
		if s.nextTupleChunk < slabMaxTupleChunk {
			s.nextTupleChunk *= 2
		}
		chunk = make([]Tuple, n)
		s.charge(int64(n) * int64(unsafe.Sizeof(Tuple{})))
	}
	s.usedTuples = append(s.usedTuples, chunk)
	s.tuples = chunk
}

// RandRefs returns a zeroed RandRef slice of length n from the reference
// arena.
func (s *Slab) RandRefs(n int) []RandRef {
	if n == 0 {
		return nil
	}
	if len(s.refs) < n {
		s.growRefs(n)
	}
	r := s.refs[:n:n]
	s.refs = s.refs[n:]
	return r
}

func (s *Slab) growRefs(n int) {
	var chunk []RandRef
	if k := len(s.freeRefs); k > 0 && len(s.freeRefs[k-1]) >= n {
		chunk = s.freeRefs[k-1]
		s.freeRefs = s.freeRefs[:k-1]
	} else {
		if s.nextRefChunk == 0 {
			s.nextRefChunk = slabFirstChunk
		}
		c := s.nextRefChunk
		if s.nextRefChunk < slabMaxRefChunk {
			s.nextRefChunk *= 2
		}
		if n > c {
			c = n
		}
		chunk = make([]RandRef, c)
		s.charge(int64(c) * int64(unsafe.Sizeof(RandRef{})))
	}
	s.usedRefs = append(s.usedRefs, chunk)
	s.refs = chunk
}

// Reset zeroes every chunk the slab has handed allocations out of and
// moves it to the free list, so subsequent allocations reuse the memory.
// Everything previously allocated from the slab becomes invalid.
func (s *Slab) Reset() {
	s.vals, s.tuples, s.refs = nil, nil, nil
	for _, c := range s.usedVals {
		for i := range c {
			c[i] = types.Value{}
		}
		s.freeVals = append(s.freeVals, c)
	}
	s.usedVals = s.usedVals[:0]
	for _, c := range s.usedTuples {
		for i := range c {
			c[i] = Tuple{}
		}
		s.freeTuples = append(s.freeTuples, c)
	}
	s.usedTuples = s.usedTuples[:0]
	for _, c := range s.usedRefs {
		for i := range c {
			c[i] = RandRef{}
		}
		s.freeRefs = append(s.freeRefs, c)
	}
	s.usedRefs = s.usedRefs[:0]
}
