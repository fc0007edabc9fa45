package serve

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/wal"
)

// commit executes one transaction's write effects for real on the
// engine's local-WAL cluster: local commit on a single write partition,
// logged 2PC across several. The flight-recorder context (traceID, vt)
// stamps the WAL events. With an empty WALDir the stores run memory-only
// — the load tests use that; the experiment tables run WAL-backed.
func (e *engine) commit(traceID uint64, vt float64, w *cluster.Writes, coord int) error {
	parts := w.Parts
	if len(parts) == 0 {
		return nil // read-only: nothing durable to do
	}
	e.local.At(traceID, 0, vt)
	e.nextTxn++
	if len(parts) == 1 {
		return e.local.Members[parts[0]].CommitLocal(e.nextTxn, w.Of(0))
	}
	if coord < 0 || !cluster.Has(parts, coord) {
		coord = parts[0]
	}
	return e.local.Commit2PC(e.nextTxn, coord, w)
}

// stateDigest folds the per-table digests of every partition store into
// one hex token: two same-seed runs must land byte-identical state, and
// this pins it in the report without dumping whole tables.
func stateDigest(members []*cluster.Member) string {
	stores := make([]*db.DB, len(members))
	for p, m := range members {
		stores[p] = m.Store()
	}
	digests := wal.CombineDigests(stores)
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	sort.Strings(names)
	var h uint64 = 1469598103934665603 // FNV-64a offset basis
	for _, name := range names {
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * 1099511628211
		}
		d := digests[name]
		for i := 0; i < 8; i++ {
			h = (h ^ (d >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}
