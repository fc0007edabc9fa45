package wal

import (
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestAppendObserver pins the observer hook: it fires once per Append /
// AppendTorn with the record type, the transaction id, and the number of
// bytes actually written to the file.
func TestAppendObserver(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type call struct {
		typ   RecType
		txn   uint64
		bytes int
	}
	var calls []call
	l.SetObserver(func(typ RecType, txn uint64, frameBytes int) {
		calls = append(calls, call{typ, txn, frameBytes})
	})

	before := l.Bytes()
	if err := l.Append(RecBegin, 7, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(RecWrite, 7, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTorn(RecCommit, 7, nil, 3); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatalf("observer fired %d times, want 3", len(calls))
	}
	want := []struct {
		typ RecType
		txn uint64
	}{{RecBegin, 7}, {RecWrite, 7}, {RecCommit, 7}}
	total := 0
	for i, c := range calls {
		if c.typ != want[i].typ || c.txn != want[i].txn {
			t.Errorf("call %d = %v/%d, want %v/%d", i, c.typ, c.txn, want[i].typ, want[i].txn)
		}
		if c.bytes <= 0 {
			t.Errorf("call %d reported %d bytes", i, c.bytes)
		}
		total += c.bytes
	}
	// The observed byte counts are exactly what landed in the file —
	// including the torn append's truncated frame.
	if got := l.Bytes() - before; int64(total) != got {
		t.Errorf("observed %d bytes, log grew %d", total, got)
	}
	if calls[2].bytes != 3 {
		t.Errorf("torn append observed %d bytes, want 3", calls[2].bytes)
	}

	// Clearing the observer stops the callbacks.
	l.SetObserver(nil)
	if err := l.Append(RecAbort, 8, nil); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatalf("cleared observer still fired (%d calls)", len(calls))
	}
}

// TestMetricHandlesSurviveRegistryReset checks that the handles wal caches
// in package-level vars at init are the ones obs.Default reports: an
// append must show in the registry's snapshot.
func TestMetricHandlesSurviveRegistryReset(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	records := func() (int64, int64) {
		snap := obs.Default.Snapshot()
		n, _ := snap["wal.records_appended"].(int64)
		h, _ := snap["wal.append_bytes"].(obs.HDRSnapshot)
		return n, h.Count
	}
	n0, h0 := records()
	if err := l.Append(RecCommit, 1, nil); err != nil {
		t.Fatal(err)
	}
	if n, h := records(); n != n0+1 || h != h0+1 {
		t.Fatalf("wal.records_appended %d -> %d, wal.append_bytes count %d -> %d; want each +1 (cached handle orphaned?)",
			n0, n, h0, h)
	}
}
