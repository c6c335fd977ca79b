// Package bundle implements Gibbs tuples (paper §5): the MCDB tuple-bundle
// extended with the lineage the Gibbs Looper needs. A Gibbs tuple carries
// deterministic attribute values, references binding each random attribute
// slot to a TS-seed (and to a column of that seed's VG output), and isPres
// vectors recording — per materialized stream element — whether a selection
// predicate applied below the looper is satisfied.
package bundle

import (
	"fmt"
	"sort"

	"repro/internal/seeds"
	"repro/internal/types"
)

// RandRef binds one attribute slot of a tuple to a TS-seed.
type RandRef struct {
	// Slot is the column index in the tuple's schema that receives the
	// random value.
	Slot int
	// SeedID is the TS-seed handle whose stream produces the value.
	SeedID uint64
	// Out selects which column of the seed's VG output row feeds the slot
	// (VG functions may emit several correlated values per element).
	Out int
}

// PresVec records, for each materialized stream element of one seed,
// whether a selection predicate applied to this tuple below the looper is
// satisfied (paper §5: "an array of isPres values ... indicates for each DB
// instance whether or not the predicate is satisfied"; because attribute
// values change individually during Gibbs sampling, the bits are kept per
// stream element rather than per whole tuple).
type PresVec struct {
	SeedID uint64
	// Lo and Bits mirror the seed window's contiguous segment.
	Lo   uint64
	Bits []bool
	// Sparse mirrors the window's still-assigned stragglers.
	Sparse map[uint64]bool
}

// At reports the predicate outcome for a stream position; ok is false when
// the position is not covered (the caller must replenish).
func (p *PresVec) At(pos uint64) (present, ok bool) {
	if pos >= p.Lo && pos < p.Lo+uint64(len(p.Bits)) {
		return p.Bits[pos-p.Lo], true
	}
	b, ok := p.Sparse[pos]
	return b, ok
}

// Any reports whether any covered position satisfies the predicate; tuples
// with an all-false vector are dropped by Select (paper §5).
func (p *PresVec) Any() bool {
	for _, b := range p.Bits {
		if b {
			return true
		}
	}
	for _, b := range p.Sparse {
		if b {
			return true
		}
	}
	return false
}

// Tuple is one Gibbs tuple.
type Tuple struct {
	// Det holds the attribute values; random slots contain the placeholder
	// types.Null and are filled per DB version at evaluation time.
	Det types.Row
	// Rand lists the tuple's random attribute bindings, if any.
	Rand []RandRef
	// Pres lists per-seed presence vectors from Select operators applied
	// below the looper.
	Pres []PresVec
}

// NewDet returns a purely deterministic tuple.
func NewDet(row types.Row) *Tuple { return &Tuple{Det: row} }

// Clone returns a deep copy (presence sparse maps are shared: they are
// written only when rebuilt whole, never mutated in place).
func (t *Tuple) Clone() *Tuple {
	out := &Tuple{Det: t.Det.Clone()}
	out.Rand = append([]RandRef(nil), t.Rand...)
	out.Pres = append([]PresVec(nil), t.Pres...)
	return out
}

// IsRandom reports whether the tuple has any random slots or presence
// vectors (i.e., whether its contribution can vary across DB versions).
func (t *Tuple) IsRandom() bool { return len(t.Rand) > 0 || len(t.Pres) > 0 }

// SeedIDs returns the distinct TS-seed handles this tuple depends on,
// ascending — the seeds under which the Gibbs looper's seed index lists
// the tuple. A handle may appear in Rand, Pres, or both.
func (t *Tuple) SeedIDs() []uint64 {
	set := map[uint64]struct{}{}
	for _, r := range t.Rand {
		set[r.SeedID] = struct{}{}
	}
	for _, p := range t.Pres {
		set[p.SeedID] = struct{}{}
	}
	out := make([]uint64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Binding gives stream positions per seed for evaluation: the looper
// evaluates tuples under the current assignment of a DB version, optionally
// overriding one seed with a candidate position during rejection sampling.
type Binding struct {
	store *seeds.Store
	// version indexes each seed's Assign column.
	version int
	// override, when set, replaces the assignment of overrideSeed.
	overrideSeed uint64
	overridePos  uint64
	hasOverride  bool
}

// Bind returns a Binding for the given DB version.
func Bind(store *seeds.Store, version int) Binding {
	return Binding{store: store, version: version}
}

// WithOverride returns a copy of the binding in which seed id is pinned to
// pos instead of its current assignment.
func (b Binding) WithOverride(id, pos uint64) Binding {
	b.overrideSeed, b.overridePos, b.hasOverride = id, pos, true
	return b
}

// Pos returns the stream position the binding uses for a seed.
func (b Binding) Pos(id uint64) uint64 {
	if b.hasOverride && id == b.overrideSeed {
		return b.overridePos
	}
	return b.store.MustGet(id).Assign[b.version]
}

// ErrNotMaterialized reports an access to a stream position outside the
// materialized window; the looper reacts by triggering a replenishing run.
type ErrNotMaterialized struct {
	SeedID uint64
	Pos    uint64
}

func (e *ErrNotMaterialized) Error() string {
	return fmt.Sprintf("bundle: seed %d position %d not materialized", e.SeedID, e.Pos)
}

// Eval materializes the tuple's row under the binding and reports whether
// the tuple is present (all isPres bits true at the bound positions). The
// returned row aliases an internal buffer valid until the next Eval with
// the same buf; pass nil to allocate.
func (t *Tuple) Eval(b Binding, buf types.Row) (row types.Row, present bool, err error) {
	if cap(buf) >= len(t.Det) {
		buf = buf[:len(t.Det)]
		copy(buf, t.Det)
	} else {
		buf = t.Det.Clone()
	}
	for _, p := range t.Pres {
		pos := b.Pos(p.SeedID)
		bit, ok := p.At(pos)
		if !ok {
			return buf, false, &ErrNotMaterialized{SeedID: p.SeedID, Pos: pos}
		}
		if !bit {
			return buf, false, nil
		}
	}
	for _, r := range t.Rand {
		pos := b.Pos(r.SeedID)
		s := b.store.MustGet(r.SeedID)
		vals, ok := s.Window.Get(pos)
		if !ok {
			return buf, false, &ErrNotMaterialized{SeedID: r.SeedID, Pos: pos}
		}
		if r.Out >= len(vals) {
			return buf, false, fmt.Errorf("bundle: seed %d output %d of %d", r.SeedID, r.Out, len(vals))
		}
		buf[r.Slot] = vals[r.Out]
	}
	return buf, true, nil
}
