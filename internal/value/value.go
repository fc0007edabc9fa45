// Package value defines the dynamically typed scalar values that flow
// through the partitioning pipeline: column values, primary-key encodings,
// and stored-procedure parameters.
//
// Values are small immutable structs that are comparable with ==, usable as
// map keys, and cheap to copy. A composite primary key is encoded into an
// opaque Key string with an unambiguous length-prefixed encoding so that
// distinct key tuples never collide.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// The supported value kinds.
const (
	Null Kind = iota
	Int
	Float
	Str
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is Null.
//
// Value is comparable with == and may be used as a map key. Two Values are
// == iff they have the same kind and the same payload; in particular the
// integer 1 and the float 1.0 are distinct map keys (use Compare for
// numeric-aware ordering). A float's payload is its IEEE 754 bit pattern,
// so == and map keys compare floats bit for bit: -0.0 and +0.0 are
// distinct, and a NaN equals a NaN with the same bits (Compare, which
// compares numerically, calls -0.0 and +0.0 equal).
type Value struct {
	kind Kind
	i    int64 // an Int's value, or a Float's math.Float64bits
	s    string
}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: Int, i: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{kind: Float, i: int64(math.Float64bits(v))} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: Str, s: v} }

// NewNull returns the null value (same as the zero Value).
func NewNull() Value { return Value{} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == Null }

// Int returns the integer payload. It panics if the value is not an Int.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic(fmt.Sprintf("value: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the float payload. It panics if the value is not a
// Float.
func (v Value) Float() float64 {
	if v.kind != Float {
		panic(fmt.Sprintf("value: Float() on %s value", v.kind))
	}
	return v.float()
}

// float returns a Float's payload as a float64.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// Numeric returns the value as a float64 for Int and Float kinds and
// reports whether the conversion applied.
func (v Value) Numeric() (float64, bool) {
	switch v.kind {
	case Int:
		return float64(v.i), true
	case Float:
		return v.float(), true
	default:
		return 0, false
	}
}

// Compare orders two values: nulls first, then numerics by numeric value,
// then strings lexicographically. Values of incomparable kinds are ordered
// by kind. The result is -1, 0, or +1.
func (v Value) Compare(o Value) int {
	if v.kind == Null || o.kind == Null {
		switch {
		case v.kind == Null && o.kind == Null:
			return 0
		case v.kind == Null:
			return -1
		default:
			return 1
		}
	}
	vn, vok := v.Numeric()
	on, ook := o.Numeric()
	if vok && ook {
		switch {
		case vn < on:
			return -1
		case vn > on:
			return 1
		default:
			return 0
		}
	}
	if v.kind == Str && o.kind == Str {
		return strings.Compare(v.s, o.s)
	}
	// Mixed non-numeric kinds: order by kind for determinism.
	switch {
	case v.kind < o.kind:
		return -1
	case v.kind > o.kind:
		return 1
	default:
		return 0
	}
}

// Hash returns a 64-bit hash of the value: FNV-1a over the kind and
// payload, finished with a murmur3-style avalanche. The finalizer matters:
// raw FNV-1a preserves congruence mod small powers of two (values that
// differ by a multiple of 8 collide mod 8), which would bias hash
// partitioning of sequential identifiers.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(byte(v.kind))
	switch v.kind {
	case Int, Float:
		u := uint64(v.i)
		for s := 0; s < 64; s += 8 {
			mix(byte(u >> s))
		}
	case Str:
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// String renders the value for human consumption.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case Str:
		return v.s
	default:
		return fmt.Sprintf("value(kind=%d)", uint8(v.kind))
	}
}

// Encode appends an unambiguous binary encoding of v to dst. The encoding
// is kind byte, then for ints/floats 8 fixed bytes, and for strings a varint
// length followed by the bytes, so no two distinct values share an encoding.
func (v Value) Encode(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case Int, Float:
		u := uint64(v.i)
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(u>>s))
		}
	case Str:
		n := len(v.s)
		for n >= 0x80 {
			dst = append(dst, byte(n)|0x80)
			n >>= 7
		}
		dst = append(dst, byte(n))
		dst = append(dst, v.s...)
	}
	return dst
}

// MarshalText encodes the value for the trace file format: "i:<n>",
// "f:<x>", "s:<str>", or "n" for null.
func (v Value) MarshalText() ([]byte, error) {
	switch v.kind {
	case Null:
		return []byte("n"), nil
	case Int:
		return []byte("i:" + strconv.FormatInt(v.i, 10)), nil
	case Float:
		return []byte("f:" + strconv.FormatFloat(v.float(), 'g', -1, 64)), nil
	case Str:
		return []byte("s:" + v.s), nil
	default:
		return nil, fmt.Errorf("value: cannot marshal kind %d", v.kind)
	}
}

// UnmarshalText decodes the format produced by MarshalText.
func (v *Value) UnmarshalText(text []byte) error {
	s := string(text)
	if s == "n" {
		*v = Value{}
		return nil
	}
	if len(s) < 2 || s[1] != ':' {
		return fmt.Errorf("value: malformed text %q", s)
	}
	body := s[2:]
	switch s[0] {
	case 'i':
		n, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return fmt.Errorf("value: malformed int %q: %w", s, err)
		}
		*v = NewInt(n)
	case 'f':
		f, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return fmt.Errorf("value: malformed float %q: %w", s, err)
		}
		*v = NewFloat(f)
	case 's':
		*v = NewString(body)
	default:
		return fmt.Errorf("value: unknown kind tag %q", s[0])
	}
	return nil
}
