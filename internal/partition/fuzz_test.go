package partition

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/fixture"
	"repro/internal/value"
)

// FuzzSolutionRoundTrip: unmarshalling arbitrary bytes as a Solution must
// never panic, and any input the decoder accepts must re-marshal into a
// canonical form that is a *fixed point*: marshal(unmarshal(marshal(s)))
// == marshal(s) byte for byte. The byte-equality contract is what lets
// the drift CI job diff same-seed runs, and what lets migrate compare
// deployed solutions by fingerprint without worrying about
// serialization jitter (map iteration order, lookup entry order). The
// seed corpus covers every mapper family plus malformed shapes; `go test
// -fuzz=FuzzSolutionRoundTrip ./internal/partition` explores further.
func FuzzSolutionRoundTrip(f *testing.F) {
	mustJSON := func(sol *Solution) []byte {
		b, err := json.Marshal(sol)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}

	// Valid seeds, one per mapper family.
	hash := NewSolution("jecb", 4)
	hash.Set(NewByPath("TRADE", fixture.TradePath(), NewHash(4)))
	hash.Set(NewReplicated("HOLDING_SUMMARY"))
	f.Add(mustJSON(hash))

	rng := NewSolution("ranged", 3)
	rng.Set(NewByPath("TRADE", fixture.TradePath(),
		RangeMapper{Parts: 3, Bounds: []value.Value{value.NewInt(100), value.NewInt(200)}}))
	f.Add(mustJSON(rng))

	lookup := NewSolution("looked-up", 3)
	lookup.Set(NewByPath("TRADE", fixture.TradePath(), NewLookup(3, map[value.Value]int{
		value.NewInt(7):        2,
		value.NewString("abc"): 0,
		value.NewFloat(2.5):    1,
	}, nil)))
	f.Add(mustJSON(lookup))

	iv := NewSolution("intervals", 2)
	iv.Set(NewByPath("TRADE", fixture.TradePath(), NewIntervals(2, map[value.Value]int{
		value.NewInt(1): 1,
		value.NewInt(2): 1,
		value.NewInt(9): 0,
	}, NewHash(2))))
	f.Add(mustJSON(iv))

	// Malformed seeds: truncated JSON, wrong types, bad mapper kinds,
	// mismatched parallel arrays, hostile k values.
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"name":"x","k":0,"tables":[]}`))
	f.Add([]byte(`{"name":"x","k":2,"tables":[{"table":"T","mapper":{"kind":"nope","k":2}}]}`))
	f.Add([]byte(`{"name":"x","k":2,"tables":[{"table":"T","path":[["T"]],"mapper":{"kind":"hash","k":2}}]}`))
	f.Add([]byte(`{"name":"x","k":2,"tables":[{"table":"T","path":[["T","C"]],"mapper":{"kind":"hash","k":-1}}]}`))
	f.Add([]byte(`{"name":"x","k":2,"tables":[{"table":"T","path":[["T","C"]],"mapper":{"kind":"lookup","k":2,"values":["i:1"],"parts":[0,1]}}]}`))
	f.Add([]byte(`{"name":"x","k":2,"tables":[{"table":"T","path":[["T","C"]],"mapper":{"kind":"interval","k":2,"lo":["i:1"],"hi":[],"label":[0]}}]}`))
	f.Add([]byte(`{"name":"x","k":2,"tables":[{"table":"T","path":[["T","C"]],"mapper":{"kind":"range","k":2,"bounds":["zz:9"]}}]}`))
	f.Add([]byte("\x00\xff\xfe"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Solution
		if err := json.Unmarshal(data, &s); err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		b1, err := json.Marshal(&s)
		if err != nil {
			// Everything the decoder constructs uses the four known mapper
			// families with text-encodable values; a marshal failure here
			// would be a real asymmetry bug.
			t.Fatalf("accepted solution failed to marshal: %v", err)
		}
		var s2 Solution
		if err := json.Unmarshal(b1, &s2); err != nil {
			t.Fatalf("canonical form failed to unmarshal: %v", err)
		}
		b2, err := json.Marshal(&s2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("marshal not a fixed point:\n b1 = %s\n b2 = %s", b1, b2)
		}
	})
}
