package partition

import (
	"fmt"
	"math/bits"
	"strings"
)

// setInlineWords is the number of bitset words Set stores inline. 4 words
// cover ids 0..255 — every partition count the experiments run — without
// touching the heap; graph-partitioner vertex sets past that spill into
// one allocated slice and stay O(maxID/64) words.
const setInlineWords = 4

// Set is a compact bitset of small non-negative integers — partition ids
// on the evaluator/simulator hot paths, tuple and vertex ids in the
// min-cut partitioner. It replaces the map[int]bool sets those paths used
// to allocate per transaction: the zero value is an empty, ready-to-use
// set, membership for ids below 256 costs no allocation at all, and
// iteration is always in ascending id order (the maps needed a sort to
// get the determinism the bitset gives for free).
//
// Set is a value type. Copying a set with no spill words is a deep copy;
// copying one that has spilled shares the spill storage, so treat copies
// of large sets as read-only snapshots (exactly how eval.Span's Parts
// are consumed).
type Set struct {
	w     [setInlineWords]uint64
	spill []uint64 // words for ids >= 64*setInlineWords
}

// Add inserts id into the set. Negative ids panic: partition ids are
// internal values, never external input.
func (s *Set) Add(id int) {
	if id < 0 {
		panic(fmt.Sprintf("partition: Set.Add(%d)", id))
	}
	w := id >> 6
	if w < setInlineWords {
		s.w[w] |= 1 << (uint(id) & 63)
		return
	}
	w -= setInlineWords
	if w >= len(s.spill) {
		grown := make([]uint64, w+1)
		copy(grown, s.spill)
		s.spill = grown
	}
	s.spill[w] |= 1 << (uint(id) & 63)
}

// Has reports membership. Out-of-range ids (including negatives) are
// simply absent.
func (s *Set) Has(id int) bool {
	if id < 0 {
		return false
	}
	w := id >> 6
	if w < setInlineWords {
		return s.w[w]&(1<<(uint(id)&63)) != 0
	}
	w -= setInlineWords
	return w < len(s.spill) && s.spill[w]&(1<<(uint(id)&63)) != 0
}

// Len returns the number of members (popcount).
func (s *Set) Len() int {
	n := 0
	for _, w := range s.w {
		n += popcount(w)
	}
	for _, w := range s.spill {
		n += popcount(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	for _, w := range s.spill {
		if w != 0 {
			return false
		}
	}
	return true
}

// Min returns the smallest member, or -1 when the set is empty. The
// simulators' deterministic coordinator pick ("lowest participating
// partition") is exactly this.
func (s *Set) Min() int {
	for i, w := range s.w {
		if w != 0 {
			return i*64 + trailingZeros(w)
		}
	}
	for i, w := range s.spill {
		if w != 0 {
			return (setInlineWords+i)*64 + trailingZeros(w)
		}
	}
	return -1
}

// ForEach calls fn for every member in ascending order.
func (s *Set) ForEach(fn func(id int)) {
	for i, w := range s.w {
		for w != 0 {
			fn(i*64 + trailingZeros(w))
			w &= w - 1
		}
	}
	for i, w := range s.spill {
		for w != 0 {
			fn((setInlineWords+i)*64 + trailingZeros(w))
			w &= w - 1
		}
	}
}

// AppendTo appends the members in ascending order and returns the
// extended slice (so hot paths can reuse one backing array).
func (s *Set) AppendTo(dst []int) []int {
	s.ForEach(func(id int) { dst = append(dst, id) })
	return dst
}

// Slice returns the members as a fresh ascending slice (nil when empty).
func (s *Set) Slice() []int {
	if s.Empty() {
		return nil
	}
	return s.AppendTo(make([]int, 0, s.Len()))
}

// String renders the set as "{1, 4, 7}".
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(id int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", id)
	})
	sb.WriteByte('}')
	return sb.String()
}

func popcount(w uint64) int      { return bits.OnesCount64(w) }
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }
