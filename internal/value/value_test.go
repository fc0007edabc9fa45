package value

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{NewInt(42), Int, "42"},
		{NewInt(-7), Int, "-7"},
		{NewFloat(1.5), Float, "1.5"},
		{NewString("abc"), Str, "abc"},
		{NewNull(), Null, "NULL"},
		{Value{}, Null, "NULL"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestValueAccessorsPanicOnWrongKind(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Float on null", func() { NewNull().Float() })
}

func TestValueEquality(t *testing.T) {
	if NewInt(1) != NewInt(1) {
		t.Error("equal ints must be ==")
	}
	if NewInt(1) == NewFloat(1) {
		t.Error("int 1 and float 1 must be distinct map keys")
	}
	m := map[Value]int{NewInt(5): 1, NewString("5"): 2}
	if m[NewInt(5)] != 1 || m[NewString("5")] != 2 {
		t.Error("values must work as distinct map keys")
	}
}

// TestValueBytesPinned pins the bytes every output form of a value
// produces — Hash, Encode, MarshalText and String — for each kind: hash
// partitioning, primary keys, trace files and reports depend on them.
func TestValueBytesPinned(t *testing.T) {
	for _, c := range []struct {
		v         Value
		hash      uint64
		enc, text string
		str       string
	}{
		{NewFloat(1.5), 0x5497d5f720e48655, "\x02?\xf8\x00\x00\x00\x00\x00\x00", "f:1.5", "1.5"},
		{NewFloat(-2.25e10), 0x2f37b63c10123e8f, "\x02\xc2\x14\xf4k\x04\x00\x00\x00", "f:-2.25e+10", "-2.25e+10"},
		{NewFloat(math.Copysign(0, -1)), 0x43abdb69dcb9a590, "\x02\x80\x00\x00\x00\x00\x00\x00\x00", "f:-0", "-0"},
		{NewFloat(math.Inf(1)), 0x6493438868f9b55, "\x02\x7f\xf0\x00\x00\x00\x00\x00\x00", "f:+Inf", "+Inf"},
		{NewInt(-7), 0xbcb8aea12cc0b7cc, "\x01\xff\xff\xff\xff\xff\xff\xff\xf9", "i:-7", "-7"},
		{NewString("ab"), 0xb7ef60551f3a584b, "\x03\x02ab", "s:ab", "ab"},
		{NewNull(), 0xb9034ad37056f5fb, "\x00", "n", "NULL"},
	} {
		text, err := c.v.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if h := c.v.Hash(); h != c.hash {
			t.Errorf("%v: Hash = %#x, want %#x", c.v, h, c.hash)
		}
		if enc := string(c.v.Encode(nil)); enc != c.enc {
			t.Errorf("%v: Encode = %q, want %q", c.v, enc, c.enc)
		}
		if string(text) != c.text || c.v.String() != c.str {
			t.Errorf("%v: MarshalText, String = %q, %q; want %q, %q", c.v, text, c.v.String(), c.text, c.str)
		}
	}
}

// TestFloatIdentityIsBits pins the float identity the Value doc comment
// states: == and map keys compare a float's IEEE 754 bits, so -0.0 and
// +0.0 are distinct and NaN equals itself, while Compare stays numeric.
// It also pins the layout that identity comes from: no float field
// beside the int payload.
func TestFloatIdentityIsBits(t *testing.T) {
	pos, neg := NewFloat(0), NewFloat(math.Copysign(0, -1))
	if pos == neg {
		t.Error("-0.0 and +0.0 must be distinct values")
	}
	if pos.Compare(neg) != 0 {
		t.Error("-0.0 and +0.0 must compare numerically equal")
	}
	nan := NewFloat(math.NaN())
	if nan != NewFloat(math.NaN()) {
		t.Error("NaN must equal a NaN with the same bits")
	}
	m := map[Value]int{pos: 1, neg: 2, nan: 3}
	if len(m) != 3 || m[NewFloat(0)] != 1 || m[NewFloat(math.Copysign(0, -1))] != 2 || m[NewFloat(math.NaN())] != 3 {
		t.Errorf("float map keys must be their bits: %v", m)
	}
	if got := nan.Float(); !math.IsNaN(got) {
		t.Errorf("NaN round trip = %v", got)
	}
	if got := neg.Float(); got != 0 || !math.Signbit(got) {
		t.Errorf("-0.0 round trip = %v", got)
	}
	if size := unsafe.Sizeof(Value{}); size != 32 {
		t.Errorf("Value is %d bytes, want 32", size)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewNull(), NewInt(0), -1},
		{NewInt(0), NewNull(), 1},
		{NewNull(), NewNull(), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestNumeric(t *testing.T) {
	if n, ok := NewInt(7).Numeric(); !ok || n != 7 {
		t.Errorf("Numeric(int 7) = %v, %v", n, ok)
	}
	if n, ok := NewFloat(2.5).Numeric(); !ok || n != 2.5 {
		t.Errorf("Numeric(float 2.5) = %v, %v", n, ok)
	}
	if _, ok := NewString("x").Numeric(); ok {
		t.Error("Numeric(string) must not be ok")
	}
}

func TestHashDistribution(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := int64(0); i < 1000; i++ {
		seen[NewInt(i).Hash()] = true
	}
	if len(seen) < 995 {
		t.Errorf("hash collisions too high: %d distinct of 1000", len(seen))
	}
	if NewInt(1).Hash() != NewInt(1).Hash() {
		t.Error("hash must be deterministic")
	}
}

func TestTextRoundTrip(t *testing.T) {
	vals := []Value{NewInt(-12345), NewFloat(3.25), NewString("hello:world"), NewString(""), NewNull()}
	for _, v := range vals {
		b, err := v.MarshalText()
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got Value
		if err := got.UnmarshalText(b); err != nil {
			t.Fatalf("unmarshal %q: %v", b, err)
		}
		if got != v {
			t.Errorf("round trip %v -> %q -> %v", v, b, got)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, s := range []string{"", "x", "i:abc", "f:zz", "q:1", "i"} {
		var v Value
		if err := v.UnmarshalText([]byte(s)); err == nil {
			t.Errorf("UnmarshalText(%q): expected error", s)
		}
	}
}

// randomValue produces an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return NewInt(r.Int63() - r.Int63())
	case 1:
		return NewFloat(r.NormFloat64())
	case 2:
		n := r.Intn(12)
		b := make([]byte, n)
		r.Read(b)
		return NewString(string(b))
	default:
		return NewNull()
	}
}

type valueTuple []Value

// Generate implements quick.Generator for random tuples.
func (valueTuple) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(4) + 1
	t := make(valueTuple, n)
	for i := range t {
		t[i] = randomValue(r)
	}
	return reflect.ValueOf(t)
}

func TestKeyRoundTripProperty(t *testing.T) {
	f := func(tup valueTuple) bool {
		k := MakeKey([]Value(tup)...)
		dec, err := DecodeKey(k)
		if err != nil || len(dec) != len(tup) {
			return false
		}
		for i := range tup {
			// Float NaN is never == itself; compare bit patterns via key re-encode.
			if MakeKey(dec[i]) != MakeKey(tup[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKeyInjectivityProperty(t *testing.T) {
	f := func(a, b valueTuple) bool {
		ka, kb := MakeKey(a...), MakeKey(b...)
		if ka == kb {
			// Same key must mean same tuple (re-encoded compare).
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if MakeKey(a[i]) != MakeKey(b[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMakeKeyAllocs checks MakeKey allocates only the returned string,
// and that a key longer than its stack buffer still encodes correctly.
func TestMakeKeyAllocs(t *testing.T) {
	a, b, c, d := NewInt(1), NewInt(2), NewInt(3), NewInt(4)
	var k Key
	if n := testing.AllocsPerRun(100, func() { k = MakeKey(a, b, c, d) }); n > 1 {
		t.Errorf("4-int MakeKey: %v allocations, want <= 1", n)
	}
	if got, err := DecodeKey(k); err != nil || !reflect.DeepEqual(got, []Value{a, b, c, d}) {
		t.Errorf("DecodeKey(4-int key) = %v, %v", got, err)
	}
	long := []Value{NewString(strings.Repeat("x", 3*keyBufSize)), NewInt(7)}
	if got, err := DecodeKey(KeyOf(long)); err != nil || !reflect.DeepEqual(got, long) {
		t.Errorf("long key round trip = %v, %v", got, err)
	}
}

func TestKeyNoPrefixCollision(t *testing.T) {
	// ("ab") vs ("a","b"): concatenation ambiguity must not collide.
	k1 := MakeKey(NewString("ab"))
	k2 := MakeKey(NewString("a"), NewString("b"))
	if k1 == k2 {
		t.Error("composite keys must not collide with concatenated singletons")
	}
	k3 := MakeKey(NewInt(1), NewInt(2))
	k4 := MakeKey(NewInt(1))
	if k3 == k4 {
		t.Error("keys of different arity must differ")
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	for _, raw := range []string{"\x01\x00", "\x03\x05ab", "\xff"} {
		if _, err := DecodeKey(Key(raw)); err == nil {
			t.Errorf("DecodeKey(%q): expected error", raw)
		}
	}
}

func TestTupleCloneAndString(t *testing.T) {
	tup := Tuple{NewInt(1), NewString("x")}
	cl := tup.Clone()
	cl[0] = NewInt(9)
	if tup[0] != NewInt(1) {
		t.Error("Clone must copy")
	}
	if got := tup.String(); got != "(1, x)" {
		t.Errorf("Tuple.String() = %q", got)
	}
}
