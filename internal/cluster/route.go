package cluster

import (
	"encoding/binary"
	"sort"

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
	var parts partition.Set
	writesReplicated, allPlaced := false, true
	for j, p := range place {
		switch p {
		case eval.PlaceUnplaced:
			allPlaced = false
		case eval.PlaceReplicated:
			if t.Accesses[j].Write {
				writesReplicated = true
			}
		default:
			parts.Add(int(p))
		}
	}
	coord = Coordinator(&parts, k, txnIndex)
	switch {
	case writesReplicated || !allPlaced:
		return PartitionIDs(k), coord, true
	case parts.Empty():
		return nil, coord, false
	case parts.Len() == 1:
		return []int{coord}, coord, false
	default:
		return parts.AppendTo(make([]int, 0, parts.Len())), coord, true
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

// WriteEffects routes a transaction's writes to owning partitions as
// touch ops, from its accesses' placements: placed keys go to their
// partition, replicated-table writes fan out to every partition,
// unplaceable keys execute at the coordinator. The returned partition
// list is sorted.
func WriteEffects(t *trace.Txn, place []int32, k, coord int) ([]int, map[int][]db.Op) {
	opsAt := map[int][]db.Op{}
	add := func(p int, acc trace.Access) {
		opsAt[p] = append(opsAt[p], db.Op{Kind: db.OpTouch, Table: acc.Table, Key: acc.Key})
	}
	for j, acc := range t.Accesses {
		if !acc.Write {
			continue
		}
		switch p := place[j]; p {
		case eval.PlaceUnplaced:
			add(coord, acc)
		case eval.PlaceReplicated:
			for n := 0; n < k; n++ {
				add(n, acc)
			}
		default:
			add(int(p), acc)
		}
	}
	parts := make([]int, 0, len(opsAt))
	for p := range opsAt {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return parts, opsAt
}

// PartOp is one committed write effect routed to a partition.
type PartOp struct {
	Part int
	Op   db.Op
}

// FlattenOps serializes per-partition write effects in partition order
// for an oracle's committed-set journal.
func FlattenOps(parts []int, opsAt map[int][]db.Op) []PartOp {
	n := 0
	for _, p := range parts {
		n += len(opsAt[p])
	}
	out := make([]PartOp, 0, n)
	for _, p := range parts {
		for _, op := range opsAt[p] {
			out = append(out, PartOp{Part: p, Op: op})
		}
	}
	return out
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
