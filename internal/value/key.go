package value

import (
	"fmt"
	"math"
	"strings"
)

// Key is an opaque, comparable encoding of a (possibly composite) tuple of
// values, used to identify rows by primary key throughout the pipeline.
// Keys built from distinct value tuples are guaranteed distinct.
type Key string

// keyBufSize is the stack buffer MakeKey encodes into. Every key the
// benchmarks build fits; a longer one (long string columns) still works,
// through ordinary append growth.
const keyBufSize = 64

// MakeKey encodes a tuple of values into a Key. It allocates once, for
// the returned string.
func MakeKey(vs ...Value) Key {
	var buf [keyBufSize]byte
	b := buf[:0]
	for _, v := range vs {
		b = v.Encode(b)
	}
	return Key(b)
}

// KeyOf is a convenience wrapper over MakeKey for a slice.
func KeyOf(vs []Value) Key { return MakeKey(vs...) }

// Tuple is a row of values in schema column order.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders a tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// DecodeKey decodes a Key back into its component values. It returns an
// error if the key is malformed (not produced by MakeKey).
func DecodeKey(k Key) ([]Value, error) {
	var out []Value
	if _, err := walkKey([]byte(k), &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckKey reports how many values the encoding b holds without decoding
// them: it accepts exactly the encodings DecodeKey accepts, with the
// same errors, and allocates nothing.
func CheckKey(b []byte) (int, error) {
	return walkKey(b, nil)
}

// walkKey walks a key encoding value by value, appending each decoded
// value to *out when out is non-nil, and returns the value count.
func walkKey(b []byte, out *[]Value) (int, error) {
	n := 0
	for ; len(b) > 0; n++ {
		kind := Kind(b[0])
		b = b[1:]
		var v Value
		switch kind {
		case Null:
		case Int, Float:
			if len(b) < 8 {
				return 0, fmt.Errorf("value: truncated key payload")
			}
			var u uint64
			for i := 0; i < 8; i++ {
				u = u<<8 | uint64(b[i])
			}
			b = b[8:]
			if kind == Int {
				v = NewInt(int64(u))
			} else {
				v = NewFloat(math.Float64frombits(u))
			}
		case Str:
			size, shift := 0, 0
			for {
				if len(b) == 0 {
					return 0, fmt.Errorf("value: truncated key length")
				}
				c := b[0]
				b = b[1:]
				size |= int(c&0x7f) << shift
				if c&0x80 == 0 {
					break
				}
				shift += 7
			}
			// An overlong length can wrap negative; it must error, not
			// slice.
			if size < 0 || len(b) < size {
				return 0, fmt.Errorf("value: truncated key string")
			}
			if out != nil {
				v = NewString(string(b[:size]))
			}
			b = b[size:]
		default:
			return 0, fmt.Errorf("value: bad kind byte %d in key", kind)
		}
		if out != nil {
			*out = append(*out, v)
		}
	}
	return n, nil
}
