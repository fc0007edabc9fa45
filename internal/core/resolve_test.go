package core

import (
	"context"
	"maps"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
)

// TestResolveMatchesFromKey is the resolution equivalence check: on all
// six benchmarks' training and test traces, every access navigated from
// the row phase 1 resolves it to (resolveTrace, then View.FromRow)
// reaches the same value as View.FromKey from its key, under every join path of
// the JECB solution. The traces include rows their own transactions
// deleted (TPC-C Delivery's NEW_ORDER rows, TPC-E Market-Feed's trade
// requests), which resolve to graveyard codes; a key with no row at all
// is added to each trace's first transaction.
func TestResolveMatchesFromKey(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			d, train, test, sol := smallSolve(t, name, 1)
			navs := map[string]*db.Nav{}
			for tbl, ts := range sol.Tables {
				if ts.Replicate {
					continue
				}
				nav, err := d.Compile(ts.Path)
				if err != nil {
					t.Fatal(err)
				}
				navs[tbl] = nav
			}
			var graveyard, missing int
			for _, tr := range []*trace.Trace{train, test} {
				tr = withMissingKey(t, tr, navs)
				for _, workers := range []int{1, 3} {
					v := d.View()
					rs, err := resolveTrace(ctx, d, v, tr, workers)
					if err != nil {
						t.Fatal(err)
					}
					for i, txn := range tr.All() {
						codes := rs.txnCodes(i)
						for a, acc := range txn.Accesses {
							code := codes[a]
							switch {
							case code == slotMissing:
								missing++
							case code < slotMissing:
								graveyard++
							}
							nav, ok := navs[acc.Table]
							if !ok {
								continue
							}
							got, gotOK := v.FromRow(nav, rs.row(d.Table(acc.Table), code))
							want, wantOK := v.FromKey(nav, acc.Key)
							if got != want || gotOK != wantOK {
								t.Fatalf("%s key %x (code %d): FromRow = %v, %v; FromKey = %v, %v",
									acc.Table, acc.Key, code, got, gotOK, want, wantOK)
							}
						}
					}
					v.Close()
				}
			}
			if missing == 0 {
				t.Error("no access resolved to a missing row")
			}
			if (name == "tpcc" || name == "tpce") && graveyard == 0 {
				t.Errorf("no access resolved to a deleted row")
			}
		})
	}
}

// withMissingKey returns tr with one more access in its first
// transaction: a key of a partitioned table that has no row, live or
// deleted.
func withMissingKey(t *testing.T, tr *trace.Trace, navs map[string]*db.Nav) *trace.Trace {
	t.Helper()
	txns := make([]trace.Txn, 0, tr.Len())
	for _, txn := range tr.All() {
		txns = append(txns, txn.Clone())
	}
	tables := slices.Sorted(maps.Keys(navs))
	if len(tables) == 0 {
		t.Fatal("the solution partitions no table")
	}
	txns[0].Accesses = append(txns[0].Accesses,
		trace.Access{Table: tables[0], Key: value.MakeKey(value.NewString("no such row"))})
	return trace.FromTxns(txns)
}
