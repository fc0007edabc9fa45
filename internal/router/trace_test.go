package router

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/value"
)

// TestRouteRecordsFlightEvents pins the router's flight-recorder hook: a
// Request carrying a Recorder records one route event per call, with the
// decision's fan-out and mode packed into Arg, and denials recorded as
// route-denied with the error code.
func TestRouteRecordsFlightEvents(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	ctx := context.Background()
	rec := obs.NewRecorder(64)
	txn := obs.TxnID(42, 0)

	// A local hit: one EvRoute, node = first partition, arg = 1<<8|local.
	dec, err := r.Route(ctx, Request{
		Class:  "CustInfo",
		Params: map[string]value.Value{"cust_id": value.NewInt(1)},
		TxnID:  txn, VT: 1.5, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := eventsFor(rec, txn)
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Kind != obs.EvRoute || int(e.Node) != dec.Partitions[0] || e.VT != 1.5 {
		t.Fatalf("route event = %+v, decision = %+v", e, dec)
	}
	wantArg := int64(len(dec.Partitions))<<8 | int64(dec.Mode)
	if e.Arg != wantArg {
		t.Fatalf("route arg = %d, want %d (fanout %d, mode %s)",
			e.Arg, wantArg, len(dec.Partitions), dec.Mode)
	}

	// A write pinned to a down partition: EvRouteDenied with the down code.
	txn2 := obs.TxnID(42, 1)
	_, err = r.Route(ctx, Request{
		Class:  "TradeUpdate",
		Params: map[string]value.Value{"cust_id": value.NewInt(2), "qty": value.NewInt(5)},
		Health: downSet{3: true},
		TxnID:  txn2, VT: 2.0, Recorder: rec,
	})
	if err == nil {
		t.Fatal("write to down partition succeeded")
	}
	evs = eventsFor(rec, txn2)
	if len(evs) != 1 || evs[0].Kind != obs.EvRouteDenied || evs[0].Arg != obs.RouteErrDown {
		t.Fatalf("denied events = %+v, want one route-denied with code %d",
			evs, obs.RouteErrDown)
	}

	// No recorder: same call, nothing recorded, no panic.
	before := len(rec.Events())
	if _, err := r.Route(ctx, Request{
		Class:  "CustInfo",
		Params: map[string]value.Value{"cust_id": value.NewInt(1)},
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) != before {
		t.Fatal("recorder-less request recorded an event")
	}
}

// eventsFor returns the recorder's events of one transaction, in order.
func eventsFor(rec *obs.Recorder, txn uint64) []obs.Event {
	var out []obs.Event
	for _, e := range rec.Events() {
		if e.Txn == txn {
			out = append(out, e)
		}
	}
	return out
}
