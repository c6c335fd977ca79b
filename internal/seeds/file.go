package seeds

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/prng"
	"repro/internal/types"
	"repro/internal/vg"
)

// This file implements the on-disk TS-seed format. The paper stores
// TS-seeds in a file sorted on handle (App. A input 5); we persist the
// regeneration recipe (VG name, parameters, window extent, assignments)
// rather than the window values themselves, since every stream element is a
// pure function of (seed, position) and can be rematerialized on load. The
// format predates on-demand draws: its list of sparse window positions is
// written empty and skipped on load, where the rows of assigned positions
// outside the window are redrawn from the assignments.

const fileMagic = uint32(0x4d434452) // "MCDR"

// Save writes the store to w in handle order.
func (st *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	write := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := write(fileMagic); err != nil {
		return err
	}
	n := uint64(len(st.byID))
	// The handle count is written twice: once as the seed count and once
	// as the allocator's next handle, which dense handles make equal.
	if err := write(n); err != nil {
		return err
	}
	if err := write(n); err != nil {
		return err
	}
	for _, s := range st.byID {
		if err := write(s.ID); err != nil {
			return err
		}
		if err := writeString(bw, s.Gen.Name()); err != nil {
			return err
		}
		if err := write(uint32(len(s.Params))); err != nil {
			return err
		}
		for _, p := range s.Params {
			if err := writeValue(bw, p); err != nil {
				return err
			}
		}
		if err := write(s.Window.Lo); err != nil {
			return err
		}
		if err := write(uint64(len(s.Window.Vals))); err != nil {
			return err
		}
		// The empty sparse list: Load redraws the rows of assigned
		// positions outside the window from Assign.
		if err := write(uint64(0)); err != nil {
			return err
		}
		if err := write(s.MaxUsed); err != nil {
			return err
		}
		if err := write(uint64(len(s.Assign))); err != nil {
			return err
		}
		for _, a := range s.Assign {
			if err := write(a); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a store written by Save. VG functions are resolved through the
// registry, streams are re-derived from master, and windows are
// rematerialized.
func Load(r io.Reader, reg *vg.Registry, master prng.Stream) (*Store, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var magic uint32
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("seeds: read magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("seeds: bad magic %#x", magic)
	}
	var n, next uint64
	if err := read(&n); err != nil {
		return nil, err
	}
	if err := read(&next); err != nil {
		return nil, err
	}
	if next != n {
		return nil, fmt.Errorf("seeds: file holds %d seeds but allocated %d handles; handles must be dense", n, next)
	}
	st := NewStore()
	for i := uint64(0); i < n; i++ {
		s := &TSSeed{}
		if err := read(&s.ID); err != nil {
			return nil, err
		}
		if s.ID != i {
			return nil, fmt.Errorf("seeds: seed %d has handle %d; handles must be dense and sorted", i, s.ID)
		}
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		gen, ok := reg.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("seeds: VG function %q not registered", name)
		}
		s.Gen = gen
		s.Stream = master.Derive(s.ID)
		var np uint32
		if err := read(&np); err != nil {
			return nil, err
		}
		s.Params = make([]types.Value, np)
		for j := range s.Params {
			v, err := readValue(br)
			if err != nil {
				return nil, err
			}
			s.Params[j] = v
		}
		var lo, count, nsparse uint64
		if err := read(&lo); err != nil {
			return nil, err
		}
		if err := read(&count); err != nil {
			return nil, err
		}
		if err := read(&nsparse); err != nil {
			return nil, err
		}
		// The sparse list is implied by Assign; skip it.
		for j := uint64(0); j < nsparse; j++ {
			var p uint64
			if err := read(&p); err != nil {
				return nil, err
			}
		}
		if err := read(&s.MaxUsed); err != nil {
			return nil, err
		}
		var na uint64
		if err := read(&na); err != nil {
			return nil, err
		}
		s.Assign = make([]uint64, na)
		for j := range s.Assign {
			if err := read(&s.Assign[j]); err != nil {
				return nil, err
			}
		}
		if err := s.Materialize(lo, int(count), nil); err != nil {
			return nil, err
		}
		if err := s.FillRows(); err != nil {
			return nil, err
		}
		st.byID = append(st.byID, s)
	}
	return st, nil
}

// SaveFile writes the store to path.
func (st *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := st.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a store from path.
func LoadFile(path string, reg *vg.Registry, master prng.Stream) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, reg, master)
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeValue(w io.Writer, v types.Value) error {
	if err := binary.Write(w, binary.LittleEndian, uint8(v.Kind())); err != nil {
		return err
	}
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindInt:
		return binary.Write(w, binary.LittleEndian, v.Int())
	case types.KindFloat:
		return binary.Write(w, binary.LittleEndian, math.Float64bits(v.Float()))
	case types.KindBool:
		var b uint8
		if v.Bool() {
			b = 1
		}
		return binary.Write(w, binary.LittleEndian, b)
	case types.KindString:
		return writeString(w, v.Str())
	default:
		return fmt.Errorf("seeds: cannot encode %s", v.Kind())
	}
}

func readValue(r io.Reader) (types.Value, error) {
	var k uint8
	if err := binary.Read(r, binary.LittleEndian, &k); err != nil {
		return types.Null, err
	}
	switch types.Kind(k) {
	case types.KindNull:
		return types.Null, nil
	case types.KindInt:
		var i int64
		if err := binary.Read(r, binary.LittleEndian, &i); err != nil {
			return types.Null, err
		}
		return types.NewInt(i), nil
	case types.KindFloat:
		var bits uint64
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return types.Null, err
		}
		return types.NewFloat(math.Float64frombits(bits)), nil
	case types.KindBool:
		var b uint8
		if err := binary.Read(r, binary.LittleEndian, &b); err != nil {
			return types.Null, err
		}
		return types.NewBool(b != 0), nil
	case types.KindString:
		s, err := readString(r)
		if err != nil {
			return types.Null, err
		}
		return types.NewString(s), nil
	default:
		return types.Null, fmt.Errorf("seeds: cannot decode kind %d", k)
	}
}
