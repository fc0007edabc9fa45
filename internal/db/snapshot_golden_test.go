package db_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/db"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// snapshotGolden pins, per benchmark, the SHA-256 of EncodeSnapshot and
// of every table's Digest (one "name digest" line per table, in name
// order) for snapshotFixture's database. A change to the checkpoint
// encoding or the digest fold that moves any byte fails here.
var snapshotGolden = map[string][2]string{
	"tpcc": {
		"d3abc8b8ca2d987018551298267dc8034afa5e8e711f48440f2355a5b3ff8ad1",
		"d6c544ca7b6d69c98e655f117cb072a0aca42161e57626155efc54d36c55c364",
	},
	"tpce": {
		"a0a480fdbb11c05b31ab90cecb4dc4f8d90691e3a416e17069dbce10ca4885dc",
		"11a1e6be563e988f5684a3f9bc1f8542adf8a24e3217f840fe23b8c9f4a772f1",
	},
}

func TestSnapshotGolden(t *testing.T) {
	for _, name := range []string{"tpcc", "tpce"} {
		t.Run(name, func(t *testing.T) {
			d := snapshotFixture(t, name)
			snap, digests := snapshotPins(d)
			want := snapshotGolden[name]
			if snap != want[0] {
				t.Errorf("snapshot hash = %s, want %s", snap, want[0])
			}
			if digests != want[1] {
				t.Errorf("digest hash = %s, want %s", digests, want[1])
			}
		})
	}
}

// snapshotFixture loads one benchmark at its small test scale, generates
// 2,000 transactions (TPC-C and TPC-E delete rows as they go), commits a
// touch op for every write of the trace, so the version counters fill,
// and deletes every fifth live row of every table, so every graveyard
// is non-empty.
func snapshotFixture(tb testing.TB, name string) *db.DB {
	tb.Helper()
	scale := map[string]int{"tpcc": 2, "tpce": 30}[name]
	b, _ := workloads.Get(name)
	d, err := b.Load(workloads.Config{Scale: scale, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tr := workloads.GenerateTrace(b, d, 2000, 2)
	var ops []db.Op
	versioned := 0
	for _, txn := range tr.All() {
		ops = ops[:0]
		for _, acc := range txn.Accesses {
			if acc.Write {
				ops = append(ops, db.Op{Kind: db.OpTouch, Table: acc.Table, Key: acc.Key})
			}
		}
		if err := d.CommitOps(ops); err != nil {
			tb.Fatal(err)
		}
		versioned += len(ops)
	}
	buried := 0
	for _, tn := range d.Schema().Tables() {
		tab := d.Table(tn.Name)
		keys := tableKeys(tab)
		for i := 0; i < len(keys); i += 5 {
			tab.Delete(keys[i])
			if _, ok := tab.GetAny(keys[i]); ok {
				buried++
			}
		}
	}
	if versioned == 0 || buried == 0 {
		tb.Fatalf("%s fixture: %d touches, %d graveyard rows; want both > 0", name, versioned, buried)
	}
	return d
}

// snapshotPins hashes the database's snapshot encoding and its per-table
// digests.
func snapshotPins(d *db.DB) (snap, digests string) {
	s := sha256.Sum256(d.EncodeSnapshot())
	dg := d.TableDigests()
	names := make([]string, 0, len(dg))
	for n := range dg {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %016x\n", n, dg[n])
	}
	return hex.EncodeToString(s[:]), hex.EncodeToString(h.Sum(nil))
}

// BenchmarkEncodeSnapshot times one checkpoint payload of the TPC-C
// fixture: live rows, version counters and graveyard of every table.
func BenchmarkEncodeSnapshot(b *testing.B) {
	d := snapshotFixture(b, "tpcc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.EncodeSnapshot()
	}
}

// BenchmarkTableDigest times the oracle's digest fold over every table
// of the TPC-C fixture.
func BenchmarkTableDigest(b *testing.B) {
	d := snapshotFixture(b, "tpcc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TableDigests()
	}
}
