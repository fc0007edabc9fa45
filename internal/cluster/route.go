package cluster

import (
	"encoding/binary"
	"iter"
	"slices"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Participants classifies a transaction from its accesses' placements
// (eval.Assigner.PlaceTxn order and sentinels): replicated-write or
// unplaceable transactions span every node; multi-partition
// transactions span their partitions; local transactions run on their
// coordinator only. A fully-replicated read returns no pinned nodes (any
// node serves it).
func Participants(t *trace.Txn, place []int32, k, txnIndex int) (nodes []int, coord int, distributed bool) {
	var s eval.Span
	for j, p := range place {
		s.Add(p, t.Accesses[j].Write)
	}
	coord = Coordinator(&s.Parts, k, txnIndex)
	switch {
	case s.All:
		return PartitionIDs(k), coord, true
	case s.Parts.Empty():
		return nil, coord, false
	case s.Parts.Len() == 1:
		return []int{coord}, coord, false
	default:
		return s.Parts.AppendTo(make([]int, 0, s.Parts.Len())), coord, true
	}
}

// Coordinator picks a deterministic coordinator: the lowest
// participating partition. Fully-replicated reads have no participant
// constraint — any node can serve them — so they round-robin by
// transaction index.
func Coordinator(parts *partition.Set, k, txnIndex int) int {
	if m := parts.Min(); m >= 0 {
		return m
	}
	return txnIndex % k
}

// PartitionIDs returns 0..k-1.
func PartitionIDs(k int) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Writes is one transaction's write effects, routed: each write is
// encoded once, as its WAL WRITE body (a db.Op encoding), and the bodies
// are grouped by the partition that executes them. Everything
// downstream — 2PC payloads, replica ship batches, log frames, the
// committed-set journal — carries these bytes as they are; a store
// decodes them only when it applies them. The bodies live in an arena
// that the next WriteEffects into the same Writes overwrites, so a
// holder that outlives the attempt copies them.
type Writes struct {
	// Parts lists the written partitions in ascending order.
	Parts  []int
	bodies [][]byte // grouped by partition, in Parts order
	ends   []int    // ends[i] is the end of Parts[i]'s group in bodies
	arena  []byte
	next   []int // per-partition fill cursor, WriteEffects scratch
}

// Of returns the bodies of Parts[i], in access order.
func (w *Writes) Of(i int) [][]byte {
	lo := 0
	if i > 0 {
		lo = w.ends[i-1]
	}
	return w.bodies[lo:w.ends[i]:w.ends[i]]
}

// At returns partition p's bodies, nil when p writes nothing.
func (w *Writes) At(p int) [][]byte {
	for i, q := range w.Parts {
		if q == p {
			return w.Of(i)
		}
	}
	return nil
}

// writeCounts sets counts[p], for every partition p below len(counts),
// to the number of write bodies WriteEffects routes to p.
func writeCounts(counts []int, t *trace.Txn, place []int32, coord int) {
	clear(counts)
	for j, acc := range t.Accesses {
		if !acc.Write {
			continue
		}
		switch p := place[j]; p {
		case eval.PlaceUnplaced:
			counts[coord]++
		case eval.PlaceReplicated:
			for n := range counts {
				counts[n]++
			}
		default:
			counts[p]++
		}
	}
}

// WriteEffects routes a transaction's writes to owning partitions as
// touch ops, from its accesses' placements, into w: placed keys go to
// their partition, replicated-table writes fan out to every partition
// (sharing one body), unplaceable keys execute at the coordinator.
func WriteEffects(w *Writes, t *trace.Txn, place []int32, k, coord int) {
	next := slices.Grow(w.next[:0], k)[:k]
	writeCounts(next, t, place, coord)
	// Counts become each partition's first slot in bodies.
	w.Parts, w.ends = w.Parts[:0], w.ends[:0]
	total := 0
	for p, c := range next {
		if c > 0 {
			w.Parts = append(w.Parts, p)
			next[p] = total
			total += c
			w.ends = append(w.ends, total)
		}
	}
	w.bodies = slices.Grow(w.bodies[:0], total)[:total]
	w.arena = w.arena[:0]
	add := func(p int, body []byte) {
		w.bodies[next[p]] = body
		next[p]++
	}
	for j, acc := range t.Accesses {
		if !acc.Write {
			continue
		}
		// A body stays valid if a later one outgrows the arena: the old
		// backing array is never written again.
		start := len(w.arena)
		w.arena = db.Op{Kind: db.OpTouch, Table: acc.Table, Key: acc.Key}.Encode(w.arena)
		body := w.arena[start:len(w.arena):len(w.arena)]
		switch p := place[j]; p {
		case eval.PlaceUnplaced:
			add(coord, body)
		case eval.PlaceReplicated:
			for n := 0; n < k; n++ {
				add(n, body)
			}
		default:
			add(int(p), body)
		}
	}
	w.next = next
}

// Journal is a committed-set journal: the routed write bodies of each
// committed transaction, in commit order, copied out of the routing
// arena. An oracle re-executes it on fault-free stores. A transaction is
// one run of (uvarint partition, uvarint length, body) in an arena of
// chunks that are filled and never grown, so adding to the journal
// never copies what it already holds.
type Journal struct {
	arena []byte   // the chunk being filled
	txns  [][]byte // txns[i] is transaction i's writes, a slice of one chunk
}

// journalChunk is the size of a Journal's arena chunks.
const journalChunk = 64 << 10

// Add appends one committed transaction's write effects, in partition
// order.
func (j *Journal) Add(w *Writes) {
	room := 0
	for _, body := range w.bodies {
		room += 2*binary.MaxVarintLen64 + len(body)
	}
	if cap(j.arena)-len(j.arena) < room {
		j.arena = make([]byte, 0, max(journalChunk, room))
	}
	start := len(j.arena)
	for i, p := range w.Parts {
		for _, body := range w.Of(i) {
			j.arena = binary.AppendUvarint(j.arena, uint64(p))
			j.arena = binary.AppendUvarint(j.arena, uint64(len(body)))
			j.arena = append(j.arena, body...)
		}
	}
	j.txns = append(j.txns, j.arena[start:len(j.arena):len(j.arena)])
}

// Len returns the number of transactions journaled.
func (j *Journal) Len() int { return len(j.txns) }

// Txn yields transaction i's writes in the order Add took them: each
// write's partition and body.
func (j *Journal) Txn(i int) iter.Seq2[int, []byte] {
	rec := j.txns[i]
	return func(yield func(int, []byte) bool) {
		for rest := rec; len(rest) > 0; {
			p, w := binary.Uvarint(rest)
			rest = rest[w:]
			n, w := binary.Uvarint(rest)
			rest = rest[w:]
			if !yield(int(p), rest[:n:n]) {
				return
			}
			rest = rest[n:]
		}
	}
}

// Has reports whether n is in parts.
func Has(parts []int, n int) bool {
	for _, p := range parts {
		if p == n {
			return true
		}
	}
	return false
}

// CoordPayload encodes the PREPARE payload naming the coordinator
// partition (the id recovery and a standby coordinator read back).
func CoordPayload(coord int) []byte {
	return binary.AppendUvarint(nil, uint64(coord))
}
