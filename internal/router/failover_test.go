package router

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fixture"
	"repro/internal/partition"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// downSet is a test Health: the listed nodes are down.
type downSet map[int]bool

func (d downSet) Down(n int) bool { return d[n] }

// replicaSetup builds a router whose CustInfo class reads only
// replicated tables, so the replica fallback is eligible when its pinned
// partition goes down.
func replicaSetup(t *testing.T, k int) *Router {
	t.Helper()
	d := fixture.CustInfoDB()
	sol := partition.NewSolution("rep", k)
	for _, tbl := range []string{"TRADE", "HOLDING_SUMMARY", "CUSTOMER_ACCOUNT"} {
		sol.Set(partition.NewReplicated(tbl))
	}
	a, err := sqlparse.Analyze(fixture.CustInfoProcedure(), d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(d, sol, []*sqlparse.Analysis{a})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouteSafeHealthyParity(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	// Nil health routes exactly like Route.
	dec, err := r.Route(context.Background(), Request{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Partitions, []int{0}) || dec.Mode != ModeLocal {
		t.Errorf("healthy route = %v (%s), want [0] (local)", dec.Partitions, dec.Mode)
	}
	if !dec.Local() {
		t.Error("single-partition decision must report Local")
	}
	// Broadcast classes stay broadcast when everything is up.
	dec, err = r.Route(context.Background(), Request{Class: "CustInfo", Health: downSet{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Partitions, []int{0, 1, 2, 3}) || dec.Mode != ModeBroadcast {
		t.Errorf("missing-param route = %v (%s), want all (broadcast)", dec.Partitions, dec.Mode)
	}
}

func TestRouteSafeWriteOnDownPartitionFails(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	// TradeUpdate (a write) pins customer 2 to partition 3. Writes never
	// drop participants: a down pinned partition is a hard error.
	_, err := r.Route(context.Background(), Request{Class: "TradeUpdate", Params: map[string]value.Value{"cust_id": value.NewInt(2), "qty": value.NewInt(5)}, Health: downSet{3: true}})
	if !errors.Is(err, ErrPartitionDown) {
		t.Fatalf("write to down partition: err = %v, want ErrPartitionDown", err)
	}
	// The same write routes fine when an unrelated node is down.
	dec, err := r.Route(context.Background(), Request{Class: "TradeUpdate", Params: map[string]value.Value{"cust_id": value.NewInt(2), "qty": value.NewInt(5)}, Health: downSet{1: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Partitions, []int{3}) || dec.Mode != ModeLocal {
		t.Errorf("unrelated-down write = %v (%s)", dec.Partitions, dec.Mode)
	}
}

func TestRouteSafeUnknownClassConservative(t *testing.T) {
	r, _ := custInfoSetup(t, 3)
	// Without code analysis the router must assume writes: any down node
	// inside the broadcast target is fatal.
	_, err := r.Route(context.Background(), Request{Class: "Mystery", Health: downSet{1: true}})
	if !errors.Is(err, ErrPartitionDown) {
		t.Fatalf("unknown class with down node: err = %v, want ErrPartitionDown", err)
	}
}

func TestRouteSafeReplicaFallback(t *testing.T) {
	r := replicaSetup(t, 3)
	// CustInfo reads only replicated tables: when part of the cluster is
	// down, the first healthy node serves the read.
	dec, err := r.Route(context.Background(), Request{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(1)}, Health: downSet{0: true}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Mode != ModeReplica || !reflect.DeepEqual(dec.Partitions, []int{1}) {
		t.Errorf("replica fallback = %v (%s), want [1] (replica): the first healthy node", dec.Partitions, dec.Mode)
	}
	// With every node down there is no replica left.
	_, err = r.Route(context.Background(), Request{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(1)}, Health: downSet{0: true, 1: true, 2: true}})
	if !errors.Is(err, ErrPartitionDown) {
		t.Fatalf("all nodes down: err = %v, want ErrPartitionDown", err)
	}
}

func TestRouteSafeDegradedRead(t *testing.T) {
	r, _ := custInfoSetup(t, 4)
	// CustInfo with an unseen value broadcasts; a read may shrink to the
	// reachable subset and serve partial data.
	dec, err := r.Route(context.Background(), Request{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(99)}, Health: downSet{2: true}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Mode != ModeDegraded || !reflect.DeepEqual(dec.Partitions, []int{0, 1, 3}) {
		t.Errorf("degraded broadcast = %v (%s), want [0 1 3] (degraded)", dec.Partitions, dec.Mode)
	}
	// A read pinned to a single down partition has nothing reachable left.
	_, err = r.Route(context.Background(), Request{Class: "CustInfo", Params: map[string]value.Value{"cust_id": value.NewInt(1)}, Health: downSet{0: true}})
	if !errors.Is(err, ErrPartitionDown) {
		t.Fatalf("pinned partition down: err = %v, want ErrPartitionDown", err)
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		ModeLocal: "local", ModeMulti: "multi", ModeBroadcast: "broadcast",
		ModeReplica: "replica", ModeDegraded: "degraded", Mode(42): "mode(42)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", uint8(m), m.String(), s)
		}
	}
}
