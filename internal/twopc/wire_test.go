package twopc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/trace"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// refEncodeOps and refEncodePrepare are the payload encoders 2PC used
// before each write was encoded once, at routing: they encode every op
// afresh. They are the reference the body-built payloads must match
// byte for byte.
func refEncodeOps(dst []byte, ops []db.Op) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	var enc []byte
	for _, op := range ops {
		enc = op.Encode(enc[:0])
		dst = binary.AppendUvarint(dst, uint64(len(enc)))
		dst = append(dst, enc...)
	}
	return dst
}

func refEncodePrepare(coord int, ops []db.Op) []byte {
	return refEncodeOps(binary.AppendUvarint(nil, uint64(coord)), ops)
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

// hashPlacement places each access by a hash of its key over k
// partitions, sending one access in 13 to every partition (a replicated
// table) and one in 17 to the coordinator (an unplaceable key), so the
// windows exercise every routing rule.
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

// TestPayloadsMatchPerOpEncoding pins the wire bytes: on a small window
// of every benchmark, each MsgPrepare and MsgCommitLocal payload built
// from the routed bodies equals the payload encoded op by op.
func TestPayloadsMatchPerOpEncoding(t *testing.T) {
	const k = 8
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
			payloads := 0
			for i, txn := range tr.All() {
				place := hashPlacement(txn, k)
				coord := i % k
				cluster.WriteEffects(&w, txn, place, k, coord)
				want := refWriteOps(txn, place, k, coord)
				if len(w.Parts) != len(want) {
					t.Fatalf("txn %d: %d write partitions, want %d", i, len(w.Parts), len(want))
				}
				for j, p := range w.Parts {
					if got, ref := encodePrepare(coord, w.Of(j)), refEncodePrepare(coord, want[p]); !bytes.Equal(got, ref) {
						t.Fatalf("txn %d partition %d: prepare payload\n got %x\nwant %x", i, p, got, ref)
					}
					if got, ref := encodeCommitLocal(w.Of(j)), refEncodeOps(nil, want[p]); !bytes.Equal(got, ref) {
						t.Fatalf("txn %d partition %d: commit-local payload\n got %x\nwant %x", i, p, got, ref)
					}
					payloads++
				}
			}
			if payloads == 0 {
				t.Fatalf("%s: the window writes nothing", name)
			}
		})
	}
}

// FuzzTwoPCPayload: the prepare, commit-local and scan-response
// decoders are total, and every rejection wraps ErrPayload; a payload
// the first two accept holds bodies DecodeOp accepts; and re-encoding
// what each returns decodes to the same value.
func FuzzTwoPCPayload(f *testing.F) {
	bodies := [][]byte{
		db.Op{Kind: db.OpTouch, Table: "TRADE", Key: "k1"}.Encode(nil),
		db.Op{Kind: db.OpDelete, Table: "CUSTOMER_ACCOUNT", Key: "k2"}.Encode(nil),
	}
	f.Add(encodePrepare(3, bodies))
	f.Add(encodePrepare(0, nil))
	f.Add(encodeCommitLocal(bodies))
	f.Add(encodeScanResp([]inDoubtPair{{Txn: 7, Coord: 2}, {Txn: 1 << 40, Coord: 0}}))
	f.Add(encodeScanResp(nil))
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		coord, got, err := decodePrepare(data)
		if err == nil {
			checkBodies(t, got)
			_, again, err := decodePrepare(encodePrepare(coord, got))
			if err != nil || !equalBodies(again, got) {
				t.Fatalf("prepare re-encoding: %q, %v; want %q", again, err, got)
			}
		} else {
			checkPayloadErr(t, "prepare", err)
		}
		got, err = decodeCommitLocal(nil, data)
		if err == nil {
			checkBodies(t, got)
			again, err := decodeCommitLocal(nil, encodeCommitLocal(got))
			if err != nil || !equalBodies(again, got) {
				t.Fatalf("commit-local re-encoding: %q, %v; want %q", again, err, got)
			}
		} else {
			checkPayloadErr(t, "commit-local", err)
		}
		pairs, err := decodeScanResp(data)
		if err == nil {
			again, err := decodeScanResp(encodeScanResp(pairs))
			if err != nil || !slices.Equal(again, pairs) {
				t.Fatalf("scan-response re-encoding: %v, %v; want %v", again, err, pairs)
			}
		} else {
			checkPayloadErr(t, "scan-response", err)
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

func checkBodies(t *testing.T, bodies [][]byte) {
	t.Helper()
	for i, b := range bodies {
		if _, err := db.CheckOp(b); err != nil {
			t.Fatalf("accepted body %d does not check: %v", i, err)
		}
	}
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
