package cluster

import (
	"hash/fnv"
	"testing"

	"repro/internal/schema"
	"repro/internal/workloads"
	"repro/internal/workloads/tpcc"
)

// recoverFixture commits the writes of a 1,500-txn TPC-C trace (4
// warehouses) on a k=8 LocalWAL under dir, each write placed by a hash
// of its key, with a CHECKPOINT after every 64th commit per partition,
// closes the logs and returns the committed journal: the state the
// end-of-run recover-and-check starts from. The fixture places the
// checkpoints itself, 2PC commits included: under the members' rule
// almost none of this window's commits, nearly all distributed, would
// checkpoint, and recovery would time a different log.
func recoverFixture(tb testing.TB, dir string) (*schema.Schema, int, *Journal) {
	tb.Helper()
	const k = 8
	bm := tpcc.New()
	d, err := bm.Load(workloads.Config{Scale: 4, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tr := workloads.GenerateTrace(bm, d, 1500, 2)
	l, err := NewLocalWAL(d.Schema(), k, dir, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	commits := make([]int, k)
	committed := &Journal{}
	var w Writes
	var place []int32
	var txn uint64
	for _, t := range tr.All() {
		place = place[:0]
		for _, acc := range t.Accesses {
			h := fnv.New32a()
			h.Write([]byte(acc.Key))
			place = append(place, int32(h.Sum32()%k))
		}
		WriteEffects(&w, t, place, k, 0)
		if len(w.Parts) == 0 {
			continue
		}
		txn++
		if len(w.Parts) == 1 {
			err = l.Members[w.Parts[0]].CommitLocal(txn, w.Of(0))
		} else {
			err = l.Commit2PC(txn, w.Parts[0], &w)
		}
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range w.Parts {
			if commits[p]++; commits[p]%64 == 0 {
				if err := l.Members[p].checkpoint(); err != nil {
					tb.Fatal(err)
				}
			}
		}
		committed.Add(&w)
	}
	l.Close()
	return d.Schema(), k, committed
}

// BenchmarkRecoverAndCheck times the end-of-run epilogue on a TPC-C
// commit window's logs: recovery of every partition log, the oracle's
// re-execution of the committed journal, and the digest comparison.
func BenchmarkRecoverAndCheck(b *testing.B) {
	dir := b.TempDir()
	sc, k, committed := recoverFixture(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, err := RecoverAndCheck(sc, dir, k, committed, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !rc.OracleOK {
			b.Fatal("oracle diverged")
		}
	}
}
