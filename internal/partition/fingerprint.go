package partition

// Fingerprints let the routing tier detect that a solution's partition
// map changed underneath its lookup tables (the router's ErrStaleLookup
// path) without deep-comparing mapper state: two placements with the same
// fingerprint route identically for the placement-shape properties the
// router derives from them (replication flag, join path, mapper family
// and partition count).

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
// Lookup-table contents are intentionally excluded — those change with
// incremental placement updates that do not invalidate which table the
// router scans (the router rebuilds value-level entries itself). The
// fields are hashed in place, without building a string: the router
// fingerprints each replaced placement on every Route until Refresh.
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

// Fingerprint hashes the whole solution: K plus every table's
// fingerprint, order-independently (XOR-combine keyed by table name so
// map iteration order cannot leak in).
func (s *Solution) Fingerprint() uint64 {
	h := fnv1a(fnvOffset64, s.Name)
	h ^= uint64(s.K) * 0x9e3779b97f4a7c15
	for name, ts := range s.Tables {
		h ^= fnv1a(fnv1a(fnvOffset64, name), "=") ^ ts.Fingerprint()
	}
	return h
}
