// Package bundle implements Gibbs tuples (paper §5): the MCDB tuple-bundle
// extended with the lineage the Gibbs Looper needs. A Gibbs tuple carries
// deterministic attribute values, references binding each random attribute
// slot to a TS-seed (and to a column of that seed's VG output), and isPres
// vectors recording — per materialized stream element — whether a selection
// predicate applied below the looper is satisfied. Where the paper re-runs
// the plan to get bits for stream elements beyond the window (§9), a
// presence vector here keeps its predicate's lineage and re-derives the bit
// from the VG output row at that position.
package bundle

import (
	"fmt"
	"sort"

	"repro/internal/expr"
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
	// Lo and Bits mirror the seed window.
	Lo   uint64
	Bits []bool
	// Lineage answers for positions outside Bits; nil means such
	// positions are an error.
	Lineage *Lineage
}

// Lineage re-derives a presence bit from the VG output row at any stream
// position. It is shared read-only by every evaluation, so it never holds
// scratch state: sharded state recomputation calls it concurrently.
type Lineage struct {
	// A Select predicate (Pred non-nil): Det is the tuple's row as the
	// Select saw it; Refs' slots are overlaid with the seed's VG outputs
	// and Pred is evaluated by the interpreter.
	Pred *expr.Compiled
	Refs []RandRef
	Det  types.Row
	// A Split group (Pred nil): present iff VG output Out equals
	// Groups[Group]. Groups holds the distinct values of the window the
	// Split enumerated; a value outside it has no output tuple.
	Out    int
	Group  int
	Groups []types.Value
}

// present evaluates the lineage on one VG output row, using scratch (any
// length) as the predicate's row buffer when it is wide enough.
func (l *Lineage) present(seedID uint64, vals []types.Value, scratch types.Row) (bool, error) {
	if l.Pred == nil {
		if l.Out >= len(vals) {
			return false, fmt.Errorf("bundle: seed %d output %d of %d", seedID, l.Out, len(vals))
		}
		v := vals[l.Out]
		for g, gv := range l.Groups {
			if gv.Equal(v) {
				return g == l.Group, nil
			}
		}
		return false, fmt.Errorf("bundle: seed %d drew %v, which the Split over its window did not enumerate; enlarge the window so every value of the split attribute appears in it", seedID, v)
	}
	row := scratch[:cap(scratch)]
	if len(row) < len(l.Det) {
		row = make(types.Row, len(l.Det))
	}
	row = row[:len(l.Det)]
	copy(row, l.Det)
	for _, r := range l.Refs {
		if r.Out >= len(vals) {
			return false, fmt.Errorf("bundle: seed %d output %d of %d", seedID, r.Out, len(vals))
		}
		row[r.Slot] = vals[r.Out]
	}
	return l.Pred.EvalBool(row), nil
}

// At reports the predicate outcome for a stream position inside Bits; ok
// is false outside them, where only the lineage can answer.
func (p *PresVec) At(pos uint64) (present, ok bool) {
	if pos >= p.Lo && pos < p.Lo+uint64(len(p.Bits)) {
		return p.Bits[pos-p.Lo], true
	}
	return false, false
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

// Clone returns a deep copy (presence bits and lineage are shared: they
// are never mutated in place).
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
// overriding one seed with a candidate position (and its drawn VG output
// row) during rejection sampling.
type Binding struct {
	store *seeds.Store
	// version indexes each seed's Assign column.
	version int
	// override, when set, replaces the assignment of overrideSeed.
	overrideSeed uint64
	overridePos  uint64
	overrideRow  []types.Value
	hasOverride  bool
}

// Bind returns a Binding for the given DB version.
func Bind(store *seeds.Store, version int) Binding {
	return Binding{store: store, version: version}
}

// WithOverride returns a copy of the binding in which seed id is pinned to
// pos, whose VG output row is row, instead of its current assignment.
func (b Binding) WithOverride(id, pos uint64, row []types.Value) Binding {
	b.overrideSeed, b.overridePos, b.overrideRow, b.hasOverride = id, pos, row, true
	return b
}

// Pos returns the stream position the binding uses for a seed.
func (b Binding) Pos(id uint64) uint64 {
	if b.hasOverride && id == b.overrideSeed {
		return b.overridePos
	}
	return b.store.MustGet(id).Assign[b.version]
}

// row returns the VG output row at the position the binding uses for a
// seed: the override row, else the window's, else the version's cached row.
func (b Binding) row(id uint64) ([]types.Value, error) {
	if b.hasOverride && id == b.overrideSeed {
		return b.overrideRow, nil
	}
	s := b.store.MustGet(id)
	if vals, ok := s.Row(b.version); ok {
		return vals, nil
	}
	return nil, fmt.Errorf("bundle: seed %d position %d of version %d is neither materialized nor cached", id, s.Assign[b.version], b.version)
}

// Eval materializes the tuple's row under the binding and reports whether
// the tuple is present (every presence vector true at the bound
// positions). The returned row aliases an internal buffer valid until the
// next Eval with the same buf; pass nil to allocate. A presence vector
// answering through its lineage uses buf as scratch, so buf must not
// alias t.Det or the lineage's rows.
func (t *Tuple) Eval(b Binding, buf types.Row) (row types.Row, present bool, err error) {
	for i := range t.Pres {
		p := &t.Pres[i]
		pos := b.Pos(p.SeedID)
		bit, ok := p.At(pos)
		if !ok {
			if p.Lineage == nil {
				return nil, false, fmt.Errorf("bundle: seed %d position %d outside the presence bits, with no lineage", p.SeedID, pos)
			}
			vals, err := b.row(p.SeedID)
			if err != nil {
				return nil, false, err
			}
			if bit, err = p.Lineage.present(p.SeedID, vals, buf); err != nil {
				return nil, false, err
			}
		}
		if !bit {
			return nil, false, nil
		}
	}
	if cap(buf) >= len(t.Det) {
		buf = buf[:len(t.Det)]
		copy(buf, t.Det)
	} else {
		buf = t.Det.Clone()
	}
	for _, r := range t.Rand {
		vals, err := b.row(r.SeedID)
		if err != nil {
			return nil, false, err
		}
		if r.Out >= len(vals) {
			return nil, false, fmt.Errorf("bundle: seed %d output %d of %d", r.SeedID, r.Out, len(vals))
		}
		buf[r.Slot] = vals[r.Out]
	}
	return buf, true, nil
}
