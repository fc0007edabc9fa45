package db

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// freshCopy rebuilds d's version counters and rows on a new store that
// has never been snapshotted, so its first snapshot sorts every key.
func freshCopy(t *testing.T, d *DB) *DB {
	t.Helper()
	out := New(d.Schema())
	for name, tab := range d.tables {
		dst := out.tables[name]
		tab.mu.RLock()
		for k, v := range tab.versions {
			dst.setVersion(k, v.n)
		}
		for _, row := range tab.rows {
			if row != nil {
				if _, err := dst.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, row := range tab.graveyard {
			dst.setGraveyard(row)
		}
		tab.mu.RUnlock()
	}
	return out
}

// TestVersionKeysMergeMatchesFreshSort interleaves touches of new and
// known keys, commit rollbacks that undo a key's first touch, snapshots and
// digests. Every snapshot and digest must equal the one a store that
// sorts every key afresh produces.
func TestVersionKeysMergeMatchesFreshSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := New(custInfoSchema())
	tables := []string{"TRADE", "CUSTOMER_ACCOUNT", "HOLDING_SUMMARY"}
	key := func() value.Key {
		if rng.Intn(4) == 0 {
			return value.MakeKey(value.NewString("k"), value.NewInt(rng.Int63n(50)))
		}
		return intKey(rng.Int63n(400))
	}
	var buf []byte
	for round := 0; round < 60; round++ {
		for i := 0; i < 1+rng.Intn(40); i++ {
			ops := make([]Op, 1+rng.Intn(4))
			for j := range ops {
				ops[j] = Op{Kind: OpTouch, Table: tables[rng.Intn(len(tables))], Key: key()}
			}
			if rng.Intn(5) == 0 {
				// The delete of a missing row fails the commit: every touch
				// rolls back, and a key touched for the first time leaves
				// versions again.
				ops = append(ops, Op{Kind: OpDelete, Table: "TRADE", Key: intKey(-1)})
				if err := d.CommitOps(ops); err == nil {
					t.Fatal("delete of a missing row committed")
				}
				continue
			}
			if err := d.CommitOps(ops); err != nil {
				t.Fatal(err)
			}
		}
		want := freshCopy(t, d)
		if rng.Intn(2) == 0 {
			buf = d.AppendSnapshot(buf[:0])
			if w := want.EncodeSnapshot(); !bytes.Equal(buf, w) {
				t.Fatalf("round %d: snapshot differs from a fresh sort (%d vs %d bytes)", round, len(buf), len(w))
			}
			continue
		}
		for _, name := range tables {
			if got, w := d.Table(name).Digest(), want.Table(name).Digest(); got != w {
				t.Fatalf("round %d: %s digest %x, fresh sort %x", round, name, got, w)
			}
		}
	}
}

// BenchmarkCheckpointCadence times one participant checkpoint cycle: 64
// commits of eight touches each, mostly to keys the store already holds,
// then the CHECKPOINT snapshot of a store holding ~40k version keys.
func BenchmarkCheckpointCadence(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := New(custInfoSchema())
	keys := make([]value.Key, 48000)
	for i := range keys {
		keys[i] = intKey(int64(i))
	}
	warm := make([]Op, 0, 40000)
	for _, k := range keys[:40000] {
		warm = append(warm, Op{Kind: OpTouch, Table: "TRADE", Key: k})
	}
	if err := d.CommitOps(warm); err != nil {
		b.Fatal(err)
	}
	buf := d.AppendSnapshot(nil)
	ops := make([]Op, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < 64; c++ {
			for j := range ops {
				ops[j] = Op{Kind: OpTouch, Table: "TRADE", Key: keys[rng.Intn(len(keys))]}
			}
			if err := d.CommitOps(ops); err != nil {
				b.Fatal(err)
			}
		}
		buf = d.AppendSnapshot(buf[:0])
	}
}
