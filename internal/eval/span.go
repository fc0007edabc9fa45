package eval

import "repro/internal/partition"

// Placement sentinels of PlaceTxn and PlaceIndex. Real partitions are
// >= 0; PlaceReplicated mirrors partition.Replicated and PlaceUnplaced
// marks a tuple whose table the solution does not cover or whose join
// path dangles.
const (
	PlaceReplicated int32 = -1
	PlaceUnplaced   int32 = -2
)

// Span is one transaction's reach under a solution, accumulated one
// access placement at a time: the real partitions its accesses touch,
// and whether it spans every partition because it writes a replicated
// tuple or touches one the solution cannot place. It is the only
// statement of Definition 5 in the repository: the evaluators, the
// phase-3 combination scorer, the commit engines' participant choice,
// the simulators, the placement heat, Horticulture's cost and the
// serving capacity estimate all classify through it. The zero value is
// the span of a transaction with no accesses.
type Span struct {
	// Parts is the set of real partitions the accesses touch; it is
	// filled even when All is set. Fill it through Add only.
	Parts partition.Set
	// All is set when the transaction writes a replicated tuple or
	// touches an unplaceable one.
	All bool
	// n is Parts.Len(), counted by Add: the phase-3 scan asks
	// Distributed after every access, and a popcount there would cost
	// as much as the scan itself.
	n int
}

// Add records one access: its placement in PlaceTxn's encoding and
// whether it writes. Replicated reads add nothing.
func (s *Span) Add(p int32, write bool) {
	switch {
	case p >= 0:
		if !s.Parts.Has(int(p)) {
			s.Parts.Add(int(p))
			s.n++
		}
	case p == PlaceUnplaced || write:
		s.All = true
	}
}

// Distributed is Definition 5: the transaction spans every partition,
// or touches more than one.
func (s *Span) Distributed() bool { return s.All || s.n > 1 }

// Touched is the number of partitions a distributed transaction
// touches out of k: all k when it spans every partition, else its real
// partitions, and never fewer than two.
func (s *Span) Touched(k int) int {
	if s.All {
		return max(2, k)
	}
	return max(2, s.n)
}
