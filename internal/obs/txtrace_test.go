package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTxnIDDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 10_000; i++ {
		id := TxnID(42, i)
		if id != TxnID(42, i) {
			t.Fatal("TxnID not deterministic")
		}
		if seen[id] {
			t.Fatalf("TxnID collision at index %d", i)
		}
		seen[id] = true
	}
	if TxnID(1, 0) == TxnID(2, 0) {
		t.Fatal("different seeds produced the same id")
	}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(1024)
	id := TxnID(7, 0)
	r.Record(id, EvBegin, -1, 0, 0.0, 3)
	r.Record(id, EvRoute, 2, 1, 0.0, 3<<8|1)
	r.Record(id, EvCommit, 2, 1, 0.001, 1_000_000)
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq order broken: %+v", events)
		}
		if e.Txn != id {
			t.Fatalf("txn mismatch: %+v", e)
		}
	}
	if events[0].Kind != EvBegin || events[2].Kind != EvCommit {
		t.Fatalf("kind order: %+v", events)
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *Recorder
	r.Record(1, EvBegin, 0, 0, 0, 0) // must not panic
	if r.Events() != nil {
		t.Fatal("nil recorder returned events")
	}
	if r.Dropped() != 0 {
		t.Fatal("nil recorder counts")
	}
	var buf bytes.Buffer
	if err := r.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[\n]\n" {
		t.Fatalf("nil dump = %q", buf.String())
	}
}

func TestRecorderRingOverwrite(t *testing.T) {
	r := NewRecorder(recorderShards * 4) // 4 slots per shard
	const total = 100
	for i := 0; i < total; i++ {
		// txn = i spreads round-robin over shards.
		r.Record(uint64(i), EvBegin, 0, 0, float64(i), 0)
	}
	events := r.Events()
	if len(events) != recorderShards*4 {
		t.Fatalf("retained = %d, want %d", len(events), recorderShards*4)
	}
	if r.Dropped() != total-int64(len(events)) {
		t.Fatalf("dropped = %d", r.Dropped())
	}
	// Only the most recent events per shard survive.
	for _, e := range events {
		if e.Seq <= uint64(total-len(events)) {
			t.Fatalf("stale event survived: %+v", e)
		}
	}
}

func TestRecorderDumpJSONValidAndDeterministic(t *testing.T) {
	mk := func() *Recorder {
		r := NewRecorder(256)
		for i := 0; i < 20; i++ {
			id := TxnID(9, i)
			r.Record(id, EvBegin, -1, 0, float64(i)*0.01, 2)
			r.Record(id, EvRoute, i%4, 1, float64(i)*0.01, 2<<8|1)
			r.Record(id, EvCommit, i%4, 1, float64(i)*0.01+0.002, 2_000_000)
		}
		return r
	}
	var a, b bytes.Buffer
	if err := mk().DumpJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().DumpJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed dumps differ")
	}
	// The dump is real JSON with the documented fields.
	var decoded []map[string]any
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, a.String())
	}
	if len(decoded) != 60 {
		t.Fatalf("decoded %d events", len(decoded))
	}
	first := decoded[0]
	if first["kind"] != "begin" || first["seq"].(float64) != 1 {
		t.Fatalf("first event: %v", first)
	}
	// Txn ids are 16-hex-digit strings (JSON numbers would lose bits).
	txn, ok := first["txn"].(string)
	if !ok || len(txn) != 16 {
		t.Fatalf("txn id encoding: %v", first["txn"])
	}
	if !strings.Contains(a.String(), `"kind":"commit"`) {
		t.Fatal("dump missing commit events")
	}
}

func TestRecorderRecordZeroAlloc(t *testing.T) {
	r := NewRecorder(1024)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Record(12345, EvCommit, 1, 1, 0.5, 100)
	}); allocs != 0 {
		t.Fatalf("Record allocates %g per op, want 0", allocs)
	}
	var nilRec *Recorder
	if allocs := testing.AllocsPerRun(1000, func() {
		nilRec.Record(12345, EvCommit, 1, 1, 0.5, 100)
	}); allocs != 0 {
		t.Fatalf("nil Record allocates %g per op, want 0", allocs)
	}
}

// TestRecorderConcurrent drives Record/Events/DumpJSON from many
// goroutines for the -race build.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(4096)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				r.Record(TxnID(int64(id), j), EvCommit, id, 1, float64(j), 0)
				if j%500 == 0 {
					_ = r.Events()
				}
			}
		}(i)
	}
	wg.Wait()
	events := r.Events()
	if int64(len(events))+r.Dropped() != 8*2000 {
		t.Fatalf("retained %d + dropped %d, want %d", len(events), r.Dropped(), 8*2000)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatal("events not seq-sorted")
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EvBegin, EvRoute, EvRouteDenied, EvFault, EvBackoff, EvPrepare,
		EvCommit, EvAbort, EvGiveUp, EvWALAppend, EvCheckpoint, EvCrash, EvRecover,
		EvShip, EvReplAck, EvPromote, EvCatchup,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if strings.HasPrefix(s, "ev(") {
			t.Fatalf("kind %d unnamed", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if EventKind(0).String() != "ev(0)" {
		t.Fatal("zero kind should be invalid")
	}
}

func TestRecorderContext(t *testing.T) {
	r := NewRecorder(64)
	ctx := WithRecorder(context.Background(), r)
	if ContextRecorder(ctx) != r {
		t.Fatal("recorder not threaded through context")
	}
	if ContextRecorder(context.Background()) != nil {
		t.Fatal("empty context should carry no recorder")
	}
}
