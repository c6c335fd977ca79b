// Package types defines the typed value system, schemas, and rows used
// throughout the MCDB-R engine. All data flowing through query plans —
// deterministic attributes, VG-function outputs, and aggregate results —
// is represented as Value.
package types

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime types supported by the engine.
type Kind uint8

const (
	// KindNull is the type of the SQL NULL value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 float.
	KindFloat
	// KindString is an immutable byte string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is NULL.
//
// Value is a small immutable struct passed by value; it deliberately avoids
// interface boxing so that hot loops (Gibbs rejection sampling evaluates
// expressions millions of times) do not allocate.
type Value struct {
	kind Kind
	i    int64 // KindInt, KindBool (0/1)
	f    float64
	s    string
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if the value is not an INT or
// BOOL; use AsFloat for lossy numeric access.
func (v Value) Int() int64 {
	if v.kind != KindInt && v.kind != KindBool {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the float payload. It panics if the value is not a FLOAT.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
	return v.f
}

// Str returns the string payload. It panics if the value is not a STRING.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics if the value is not a BOOL.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.i != 0
}

// IsNumeric reports whether the value is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsFloat converts a numeric or boolean value to float64.
// NULL converts to NaN. It returns false for strings.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	case KindNull:
		return math.NaN(), true
	default:
		return 0, false
	}
}

// MustFloat converts like AsFloat but panics on strings.
func (v Value) MustFloat() float64 {
	f, ok := v.AsFloat()
	if !ok {
		panic(fmt.Sprintf("types: MustFloat on %s value", v.kind))
	}
	return f
}

// String renders the value for display and CSV output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Equal reports deep equality. NULL equals NULL (useful for hashing and
// grouping; SQL three-valued logic is handled in the expr package).
// Numeric values of different kinds compare by numeric value, so
// NewInt(3).Equal(NewFloat(3)) is true; this matches join-key semantics.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		switch v.kind {
		case KindNull:
			return true
		case KindInt, KindBool:
			return v.i == o.i
		case KindFloat:
			return v.f == o.f
		case KindString:
			return v.s == o.s
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return a == b
	}
	return false
}

// Identical reports whether v and o are the same value bit for bit: the
// same kind and payload, floats compared by bit pattern (so -0 and 0
// differ, and a NaN is identical to a NaN with the same bits).
func (v Value) Identical(o Value) bool {
	if v.kind == KindFloat {
		return o.kind == KindFloat && math.Float64bits(v.f) == math.Float64bits(o.f)
	}
	return v == o
}

// Compare orders values: NULL < BOOL < numerics < STRING, numerics by
// value. It returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	vr, or := v.rank(), o.rank()
	if vr != or {
		if vr < or {
			return -1
		}
		return 1
	}
	switch {
	case v.kind == KindNull:
		return 0
	case v.kind == KindBool:
		return cmpInt(v.i, o.i)
	case v.kind == KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	default: // numeric
		if v.kind == KindInt && o.kind == KindInt {
			return cmpInt(v.i, o.i)
		}
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
}

func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Hash returns a 64-bit hash suitable for hash joins and grouping.
// Values that are Equal hash identically (numerics hash by float value).
func (v Value) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	switch v.kind {
	case KindNull:
		mix(0)
	case KindBool:
		mix(1)
		mix(byte(v.i))
	case KindString:
		mix(2)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	default: // numeric: hash the float64 bits so INT(3) and FLOAT(3) collide
		f, _ := v.AsFloat()
		bits := math.Float64bits(f)
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			// normalize -0.0 to 0.0
			if bits == 1<<63 {
				bits = 0
			}
		}
		mix(3)
		for s := 0; s < 64; s += 8 {
			mix(byte(bits >> s))
		}
	}
	return h
}

// ParseValue parses a literal using the given kind, as when loading CSVs.
func ParseValue(s string, k Kind) (Value, error) {
	if s == "NULL" {
		return Null, nil
	}
	switch k {
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("types: parse %q as INT: %w", s, err)
		}
		return NewInt(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null, fmt.Errorf("types: parse %q as FLOAT: %w", s, err)
		}
		return NewFloat(f), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null, fmt.Errorf("types: parse %q as BOOL: %w", s, err)
		}
		return NewBool(b), nil
	case KindString:
		return NewString(s), nil
	default:
		return Null, fmt.Errorf("types: cannot parse into %s", k)
	}
}
