package partition

// A table solution's fingerprint tells whether two placements have the
// same shape (replication flag, join path, mapper family and partition
// count) without deep-comparing mapper state: migrate uses it to find
// the tables whose placement changed between two solutions.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a accumulates FNV-1a over s.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvField accumulates one tagged field. Identifiers never contain the
// tag bytes (1-4), so the field boundaries stay unambiguous.
func fnvField(h uint64, tag byte, s string) uint64 {
	return fnv1a((h^uint64(tag))*fnvPrime64, s)
}

// Fingerprint hashes the placement-shape of one table solution: the
// table, the replication flag, the join path (every node's table and
// columns), and the mapper family and k. Two table solutions fingerprint
// alike exactly when their String renderings and mapper k agree.
// Lookup-table contents are intentionally excluded: they change with
// incremental placement updates that keep the placement's shape. The
// fields are hashed in place, without building a string.
func (ts *TableSolution) Fingerprint() uint64 {
	h := fnv1a(fnvOffset64, ts.Table)
	if ts.Replicate {
		return fnvField(h, 1, "")
	}
	for _, n := range ts.Path.Nodes {
		h = fnvField(h, 2, n.Table)
		for _, c := range n.Columns {
			h = fnvField(h, 3, c)
		}
	}
	if ts.Mapper != nil {
		h = fnvField(h, 4, ts.Mapper.Name())
		h = (h ^ uint64(ts.Mapper.K())) * fnvPrime64
	}
	return h
}
