// Fixture checked under package path repro/internal/exec — outside
// the arena package, so the aliasing rules apply. It imports the real
// repro/internal/bundle so the taint sources are the genuine carving
// methods.
package fixtures

import (
	"repro/internal/bundle"
	"repro/internal/types"
)

var leakedRow types.Row

var leakedRefs []bundle.RandRef

// append on a carved slice reallocates out of the arena.
func appendEscape(s *bundle.Slab) types.Row {
	row := s.Row(4)
	var v types.Value
	return append(row, v) // want `append to a slab-carved slice`
}

// Taint flows through plain assignment.
func appendViaAlias(s *bundle.Slab) []bundle.RandRef {
	refs := s.RandRefs(2)
	alias := refs
	return append(alias, bundle.RandRef{}) // want `append to a slab-carved slice`
}

// ... and through reslicing.
func appendViaReslice(s *bundle.Slab) types.Row {
	row := s.Row(8)
	head := row[:2]
	var v types.Value
	return append(head, v) // want `append to a slab-carved slice`
}

// A carved value in a package-level variable outlives Slab.Reset.
func storeGlobalRow(s *bundle.Slab) {
	leakedRow = s.Row(3) // want `slab-carved value stored in package-level "leakedRow"`
}

func storeGlobalRefs(s *bundle.Slab) {
	leakedRefs = s.RandRefs(1) // want `slab-carved value stored in package-level "leakedRefs"`
}

// Indexing into a carved row is the intended use.
func indexOK(s *bundle.Slab) types.Row {
	row := s.Row(4)
	var v types.Value
	row[0] = v
	return row
}

// Appending to an ordinary heap slice is unaffected.
func heapAppendOK() types.Row {
	row := make(types.Row, 0, 4)
	var v types.Value
	return append(row, v)
}

// The audited escape hatch.
func suppressedOK(s *bundle.Slab) types.Row {
	row := s.Row(1)
	var v types.Value
	return append(row, v) //mcdbr:slabsafe ok(fixture demonstrates the suppression syntax)
}
