package router

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/value"
	"repro/internal/wal"
)

// TestRouteSafeInDoubtPartitionLifecycle walks the recovery story a crash
// between prepare and commit creates, with the partitions a scan of the
// logs finds in doubt given to Route as down: a write to the in-doubt
// partition is refused, reads degrade around it, and once presumed-abort
// resolution lands the partition serves again.
func TestRouteSafeInDoubtPartitionLifecycle(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	sc := fixture.CustInfoDB().Schema()
	dir := t.TempDir()

	// Partition 0 coordinated txn 7 and durably logged COMMIT; partition 3
	// prepared it (and an undecided txn 8) and crashed before hearing the
	// decision — a torn tail ate its commit record.
	touch := db.Op{Kind: db.OpTouch, Table: "TRADE", Key: value.MakeKey(value.NewInt(300))}
	l0, err := wal.Create(wal.PartitionLogPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	l0.Append(wal.RecCommit, 7, nil)
	l0.Close()
	l3, err := wal.Create(wal.PartitionLogPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	coord := []byte{0} // uvarint(0)
	l3.Append(wal.RecBegin, 7, nil)
	l3.Append(wal.RecWrite, 7, touch.Encode(nil))
	l3.Append(wal.RecPrepare, 7, coord)
	l3.Append(wal.RecBegin, 8, nil)
	l3.Append(wal.RecPrepare, 8, coord)
	l3.AppendTorn(wal.RecCommit, 7, nil, 3)
	l3.Close()

	// Pre-resolution scan: partition 3 is in doubt.
	scan, err := wal.ScanDir(sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	health := inDoubtNodes(scan)
	if !reflect.DeepEqual(health, faults.NodeSet{3: true}) {
		t.Fatalf("in-doubt nodes = %v, want {3}", health)
	}

	// A write pinned to the in-doubt partition is refused outright.
	params2 := map[string]value.Value{"cust_id": value.NewInt(2), "qty": value.NewInt(5)}
	if _, err := r.Route(context.Background(), Request{Class: "TradeUpdate", Params: params2, Health: health}); !errors.Is(err, ErrPartitionDown) {
		t.Fatalf("write to in-doubt partition: err = %v, want ErrPartitionDown", err)
	}
	// A broadcast read degrades to the healthy subset instead of failing.
	dec, err := r.Route(context.Background(), Request{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(99)}, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Mode != ModeDegraded || !reflect.DeepEqual(dec.Partitions, []int{0, 1, 2}) {
		t.Errorf("degraded read = %v (%s), want [0 1 2] (degraded)", dec.Partitions, dec.Mode)
	}
	// Writes pinned elsewhere are unaffected.
	params1 := map[string]value.Value{"cust_id": value.NewInt(1), "qty": value.NewInt(5)}
	if dec, err := r.Route(context.Background(), Request{Class: "TradeUpdate", Params: params1, Health: health}); err != nil || !dec.Local() {
		t.Fatalf("unrelated write: dec = %v, err = %v", dec, err)
	}

	// Resolution: the coordinator's logged decision commits txn 7,
	// presumed abort drops txn 8, and the partition comes back.
	cr, err := wal.RecoverDir(sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cr.InDoubtCommitted != 1 || cr.InDoubtAborted != 1 {
		t.Fatalf("resolution: %d committed / %d aborted, want 1/1", cr.InDoubtCommitted, cr.InDoubtAborted)
	}
	want := db.New(sc)
	if err := want.Apply(touch); err != nil {
		t.Fatal(err)
	}
	if got := cr.Parts[3].DB.TableDigests(); !reflect.DeepEqual(got, want.TableDigests()) {
		t.Errorf("resolved commit not applied: digests %v, want %v", got, want.TableDigests())
	}
	post, err := wal.ScanDir(sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	if health = inDoubtNodes(post); len(health) != 0 {
		t.Fatalf("in-doubt nodes after resolution: %v", health)
	}
	dec, err = r.Route(context.Background(), Request{Class: "TradeUpdate", Params: params2, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Partitions, []int{3}) || dec.Mode != ModeLocal {
		t.Errorf("post-resolution write = %v (%s), want [3] (local)", dec.Partitions, dec.Mode)
	}
}

// inDoubtNodes returns the partitions of cr holding a prepared-undecided
// transaction.
func inDoubtNodes(cr *wal.ClusterRecovery) faults.NodeSet {
	s := faults.NodeSet{}
	for id, rec := range cr.Parts {
		if len(rec.InDoubt) > 0 {
			s[id] = true
		}
	}
	return s
}
