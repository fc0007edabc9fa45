package repl

import (
	"bytes"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// refStepRecords is how a primary built one protocol step's records
// before each write was encoded once, at routing: BEGIN, a WRITE per op
// encoded afresh, then the tail. It is the reference the body-built ship
// batches must match byte for byte.
func refStepRecords(txn uint64, ops []db.Op, tail wal.RecType, tailPayload []byte) []wal.Record {
	recs := []wal.Record{{Type: wal.RecBegin, Txn: txn}}
	for _, op := range ops {
		recs = append(recs, wal.Record{Type: wal.RecWrite, Txn: txn, Payload: op.Encode(nil)})
	}
	if tail != 0 {
		recs = append(recs, wal.Record{Type: tail, Txn: txn, Payload: tailPayload})
	}
	return recs
}

// refWriteOps is the routing rule of cluster.WriteEffects as it read
// before it encoded bodies: touch ops, per partition, in access order.
func refWriteOps(t *trace.Txn, place []int32, k, coord int) map[int][]db.Op {
	opsAt := map[int][]db.Op{}
	for j, acc := range t.Accesses {
		if !acc.Write {
			continue
		}
		op := db.Op{Kind: db.OpTouch, Table: acc.Table, Key: acc.Key}
		switch p := place[j]; p {
		case eval.PlaceUnplaced:
			opsAt[coord] = append(opsAt[coord], op)
		case eval.PlaceReplicated:
			for n := 0; n < k; n++ {
				opsAt[n] = append(opsAt[n], op)
			}
		default:
			opsAt[int(p)] = append(opsAt[int(p)], op)
		}
	}
	return opsAt
}

// hashPlacement places accesses by key hash, with one in 13 replicated
// and one in 17 unplaceable, so every routing rule is exercised.
func hashPlacement(t *trace.Txn, k int) []int32 {
	place := make([]int32, len(t.Accesses))
	for j, acc := range t.Accesses {
		h := fnv.New32a()
		h.Write([]byte(acc.Table))
		h.Write([]byte(acc.Key))
		switch v := h.Sum32(); {
		case v%13 == 0:
			place[j] = eval.PlaceReplicated
		case v%17 == 0:
			place[j] = eval.PlaceUnplaced
		default:
			place[j] = int32(v % uint32(k))
		}
	}
	return place
}

// TestShipBatchesMatchPerOpEncoding pins the wire bytes: on a small
// window of every benchmark, each MsgAppend payload a primary ships for
// a commit or prepare step equals the payload of the step's records
// encoded op by op.
func TestShipBatchesMatchPerOpEncoding(t *testing.T) {
	const k = 4
	var w cluster.Writes
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			b, _ := workloads.Get(name)
			scale := map[string]int{"tpcc": 2, "tatp": 50}[name]
			if scale == 0 {
				scale = 30
			}
			d, err := b.Load(workloads.Config{Scale: scale, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			tr := workloads.GenerateTrace(b, d, 300, 2)
			prims := make([]*primary, k)
			for p := range prims {
				prims[p] = newTestPrimary(t, d.Schema(), t.TempDir())
			}
			batches := 0
			for i, txn := range tr.All() {
				place := hashPlacement(txn, k)
				coord := i % k
				cluster.WriteEffects(&w, txn, place, k, coord)
				want := refWriteOps(txn, place, k, coord)
				tail, payload := wal.RecCommit, []byte(nil)
				if len(w.Parts) > 1 {
					tail, payload = wal.RecPrepare, cluster.CoordPayload(coord)
				}
				for j, p := range w.Parts {
					pr, id := prims[p], uint64(i+1)
					base := pr.seq
					if err := pr.appendTxn(id, w.Of(j), tail, payload); err != nil {
						t.Fatal(err)
					}
					ref := refStepRecords(id, want[p], tail, payload)
					if got, ref := pr.shipPayload(nil, base), encodeAppend(pr.epoch, base, ref); !bytes.Equal(got, ref) {
						t.Fatalf("txn %d partition %d: ship batch\n got %x\nwant %x", i, p, got, ref)
					}
					if tail == wal.RecPrepare {
						if err := pr.append(wal.RecAbort, id, nil); err != nil {
							t.Fatal(err)
						}
					}
					batches++
				}
			}
			if batches == 0 {
				t.Fatalf("%s: the window writes nothing", name)
			}
		})
	}
}

// FuzzReplAppend: decodeAppend, decodeSeq and decodeSnapshot are total,
// and every rejection wraps ErrPayload; what each accepts re-encodes to
// a payload that decodes to the same value; a batch encodeAppend built
// decodes back to itself.
func FuzzReplAppend(f *testing.F) {
	recs := []wal.Record{
		{Type: wal.RecBegin, Txn: 7},
		{Type: wal.RecWrite, Txn: 7, Payload: db.Op{Kind: db.OpTouch, Table: "TRADE", Key: "k"}.Encode(nil)},
		{Type: wal.RecPrepare, Txn: 7, Payload: cluster.CoordPayload(2)},
		{Type: wal.RecCommit, Txn: 7},
	}
	if _, _, got, err := decodeAppend(encodeAppend(3, 40, recs)); err != nil || !reflect.DeepEqual(got, recs) {
		f.Fatalf("round trip: %+v, %v; want %+v", got, err, recs)
	}
	f.Add(encodeAppend(3, 40, recs))
	f.Add(encodeAppend(0, 0, nil))
	f.Add(encodeSeq(5, 1<<40))
	f.Add(encodeSnapshot(2, 17, []byte("snapshot bytes")))
	f.Add([]byte{1, 2, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if epoch, base, got, err := decodeAppend(data); err == nil {
			e2, b2, again, err := decodeAppend(encodeAppend(epoch, base, got))
			if err != nil || e2 != epoch || b2 != base || !reflect.DeepEqual(again, got) {
				t.Fatalf("append re-encoding: epoch %d base %d %+v, %v; want %d %d %+v", e2, b2, again, err, epoch, base, got)
			}
		} else {
			checkPayloadErr(t, "append", err)
		}
		if epoch, seq, err := decodeSeq(data); err == nil {
			if e2, s2, err := decodeSeq(encodeSeq(epoch, seq)); err != nil || e2 != epoch || s2 != seq {
				t.Fatalf("seq re-encoding: %d %d, %v; want %d %d", e2, s2, err, epoch, seq)
			}
		} else {
			checkPayloadErr(t, "seq", err)
		}
		if epoch, base, snap, err := decodeSnapshot(data); err == nil {
			e2, b2, s2, err := decodeSnapshot(encodeSnapshot(epoch, base, snap))
			if err != nil || e2 != epoch || b2 != base || !bytes.Equal(s2, snap) {
				t.Fatalf("snapshot re-encoding: %d %d %x, %v; want %d %d %x", e2, b2, s2, err, epoch, base, snap)
			}
		} else {
			checkPayloadErr(t, "snapshot", err)
		}
	})
}

// checkPayloadErr fails the test unless a decoder's rejection wraps
// ErrPayload.
func checkPayloadErr(t *testing.T, decoder string, err error) {
	t.Helper()
	if !errors.Is(err, ErrPayload) {
		t.Fatalf("%s rejection %v does not wrap ErrPayload", decoder, err)
	}
}
