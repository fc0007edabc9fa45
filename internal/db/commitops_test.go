package db

import (
	"errors"
	"maps"
	"sync"
	"testing"

	"repro/internal/value"
)

// commitPaths are the two ways to commit a transaction's ops: CommitOps,
// and CommitBodies, which takes the ops as their encodings. Every case
// below runs through both and must behave the same: state, error text
// and commit counters.
var commitPaths = []struct {
	name   string
	commit func(d *DB, ops []Op) error
}{
	{"commit-ops", (*DB).CommitOps},
	{"commit-bodies", func(d *DB, ops []Op) error {
		bodies := make([][]byte, len(ops))
		for i, op := range ops {
			bodies[i] = op.Encode(nil)
		}
		return d.CommitBodies(bodies)
	}},
}

// sameErrors reports the first path whose error text differs from the
// first path's.
func sameErrors(t *testing.T, name string, errs []string) {
	t.Helper()
	for i := 1; i < len(errs); i++ {
		if errs[i] != errs[0] {
			t.Errorf("%s: errors differ: %q vs %q", name, errs[0], errs[i])
		}
	}
}

// txCounters are the commit-path metrics a commit moves.
type txCounters struct {
	commits, aborts, rollbacks, commitOpsCount, commitOpsSum int64
}

func readTxCounters() txCounters {
	h := hTxCommitOps.Snapshot()
	return txCounters{cTxCommits.Value(), cTxAborts.Value(), cTxRollbacks.Value(), h.Count, h.Sum}
}

// commitCounted runs one commit and returns its counter deltas and error.
func commitCounted(d *DB, commit func(*DB, []Op) error, ops []Op) (txCounters, error) {
	before := readTxCounters()
	err := commit(d, ops)
	after := readTxCounters()
	return txCounters{
		after.commits - before.commits, after.aborts - before.aborts,
		after.rollbacks - before.rollbacks,
		after.commitOpsCount - before.commitOpsCount, after.commitOpsSum - before.commitOpsSum,
	}, err
}

func intKey(id int64) value.Key { return value.MakeKey(value.NewInt(id)) }

func TestCommitPathsApply(t *testing.T) {
	k2, k5 := intKey(2), intKey(5)
	ops := []Op{
		{Kind: OpInsert, Table: "TRADE", Row: value.Tuple{value.NewInt(100), value.NewInt(1), value.NewInt(9)}},
		{Kind: OpUpdate, Table: "TRADE", Key: k5, Cols: []string{"T_QTY"}, Vals: []value.Value{value.NewInt(42)}},
		{Kind: OpDelete, Table: "TRADE", Key: k2},
		{Kind: OpTouch, Table: "TRADE", Key: k5},
	}
	var digests []map[string]uint64
	for _, path := range commitPaths {
		t.Run(path.name, func(t *testing.T) {
			d := loadFigure1(t)
			delta, err := commitCounted(d, path.commit, ops)
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			if want := (txCounters{commits: 1, commitOpsCount: 1, commitOpsSum: 4}); delta != want {
				t.Errorf("counter deltas %+v, want %+v", delta, want)
			}
			tr := d.Table("TRADE")
			if _, ok := tr.Get(intKey(100)); !ok {
				t.Error("committed insert missing")
			}
			if row, _ := tr.Get(k5); row[2].Int() != 42 {
				t.Errorf("committed update: qty = %v", row[2])
			}
			if _, ok := tr.Get(k2); ok {
				t.Error("committed delete left row")
			}
			if versionOf(tr, k5) != 1 {
				t.Errorf("committed touch: version = %d", versionOf(tr, k5))
			}
			digests = append(digests, d.TableDigests())
		})
	}
	for i := 1; i < len(digests); i++ {
		if !maps.Equal(digests[0], digests[i]) {
			t.Errorf("commit paths disagree: %v vs %v", digests[0], digests[i])
		}
	}
}

// TestCommitPathsRollBackOnConflict: a touch, an update, a delete and an
// insert apply, then a conflicting op fails. Both paths must undo the
// whole prefix — per-table digests equal the pre-commit state, the
// deleted row is live again with no graveyard entry, the inserted row is
// unreachable even through GetAny.
func TestCommitPathsRollBackOnConflict(t *testing.T) {
	k3, k4 := intKey(3), intKey(4)
	prefix := []Op{
		{Kind: OpTouch, Table: "TRADE", Key: k3},
		{Kind: OpUpdate, Table: "TRADE", Key: k3, Cols: []string{"T_QTY"}, Vals: []value.Value{value.NewInt(77)}},
		{Kind: OpDelete, Table: "TRADE", Key: k4},
		{Kind: OpInsert, Table: "TRADE", Row: value.Tuple{value.NewInt(100), value.NewInt(1), value.NewInt(1)}},
	}
	conflicts := []struct {
		name string
		op   Op
	}{
		{"insert-duplicate", Op{Kind: OpInsert, Table: "TRADE", Row: value.Tuple{value.NewInt(1), value.NewInt(1), value.NewInt(1)}}},
		{"update-missing", Op{Kind: OpUpdate, Table: "TRADE", Key: intKey(999), Cols: []string{"T_QTY"}, Vals: []value.Value{value.NewInt(1)}}},
		{"update-unknown-column", Op{Kind: OpUpdate, Table: "TRADE", Key: k3, Cols: []string{"NOPE"}, Vals: []value.Value{value.NewInt(1)}}},
		{"delete-missing", Op{Kind: OpDelete, Table: "TRADE", Key: intKey(999)}},
	}
	for _, c := range conflicts {
		ops := append(append([]Op(nil), prefix...), c.op)
		var errs []string
		for _, path := range commitPaths {
			t.Run(c.name+"/"+path.name, func(t *testing.T) {
				d := loadFigure1(t)
				before := d.TableDigests()
				delta, err := commitCounted(d, path.commit, ops)
				if err == nil {
					t.Fatal("conflicting commit succeeded")
				}
				errs = append(errs, err.Error())
				if want := (txCounters{rollbacks: 1}); delta != want {
					t.Errorf("counter deltas %+v, want %+v", delta, want)
				}
				if after := d.TableDigests(); !maps.Equal(before, after) {
					t.Errorf("digests changed across failed commit: %v -> %v", before, after)
				}
				tr := d.Table("TRADE")
				if _, ok := tr.Get(k4); !ok {
					t.Error("deleted row not live after rollback")
				}
				if _, ok := tr.graveyard[k4]; ok {
					t.Error("rolled-back delete left a graveyard entry")
				}
				if _, ok := tr.GetAny(intKey(100)); ok {
					t.Error("rolled-back insert still reachable")
				}
				if versionOf(tr, k3) != 0 {
					t.Errorf("rolled-back touch: version = %d", versionOf(tr, k3))
				}
			})
		}
		sameErrors(t, c.name, errs)
	}
}

// TestCommitPathsValidation: an op that fails validation (checkOp) aborts
// the commit before anything applies, on every path, with the same
// error — except that an op of an unknown kind does not decode, so
// CommitBodies fails it as malformed, and an update whose columns and
// values differ in number has no encoding at all.
func TestCommitPathsValidation(t *testing.T) {
	prefix := []Op{
		{Kind: OpTouch, Table: "TRADE", Key: intKey(3)},
		{Kind: OpInsert, Table: "TRADE", Row: value.Tuple{value.NewInt(100), value.NewInt(1), value.NewInt(1)}},
	}
	invalid := []struct {
		name string
		op   Op
	}{
		{"unknown-table", Op{Kind: OpTouch, Table: "NOPE", Key: intKey(1)}},
		{"insert-arity", Op{Kind: OpInsert, Table: "TRADE", Row: value.Tuple{value.NewInt(1)}}},
		{"insert-type", Op{Kind: OpInsert, Table: "TRADE", Row: value.Tuple{value.NewString("x"), value.NewInt(1), value.NewInt(1)}}},
		{"update-arity", Op{Kind: OpUpdate, Table: "TRADE", Key: intKey(3), Cols: []string{"T_QTY", "T_CA_ID"}, Vals: []value.Value{value.NewInt(1)}}},
		{"unknown-kind", Op{Kind: OpKind(9), Table: "TRADE", Key: intKey(3)}},
	}
	for _, c := range invalid {
		ops := append(append([]Op(nil), prefix...), c.op)
		var errs []string
		for _, path := range commitPaths {
			t.Run(c.name+"/"+path.name, func(t *testing.T) {
				bodies := path.name == "commit-bodies"
				if bodies && c.name == "update-arity" {
					t.Skip("an update's columns and values are encoded in pairs")
				}
				d := loadFigure1(t)
				before := d.TableDigests()
				delta, err := commitCounted(d, path.commit, ops)
				if err == nil {
					t.Fatal("invalid op committed")
				}
				if bodies && c.name == "unknown-kind" {
					if !errors.Is(err, ErrOpDecode) {
						t.Errorf("err = %v, want ErrOpDecode", err)
					}
				} else {
					errs = append(errs, err.Error())
				}
				if want := (txCounters{aborts: 1}); delta != want {
					t.Errorf("counter deltas %+v, want %+v", delta, want)
				}
				if after := d.TableDigests(); !maps.Equal(before, after) {
					t.Errorf("digests changed across rejected commit: %v -> %v", before, after)
				}
			})
		}
		sameErrors(t, c.name, errs)
	}
}

// touchOps returns n touch ops on TRADE keys 1..n.
func touchOps(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpTouch, Table: "TRADE", Key: intKey(int64(i + 1))}
	}
	return ops
}

// TestCommitOpsZeroAlloc: committing touches of already-versioned keys
// allocates nothing — no op copies, no undo closures — and neither does
// CommitBodies, whose decoded touches name each key with the table's
// copy.
func TestCommitOpsZeroAlloc(t *testing.T) {
	d := loadFigure1(t)
	ops := touchOps(8)
	if err := d.CommitOps(ops); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := d.CommitOps(ops); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CommitOps of versioned touches: %v allocs, want 0", n)
	}
	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		bodies[i] = op.Encode(nil)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := d.CommitBodies(bodies); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CommitBodies of versioned touches: %v allocs, want 0", n)
	}
}

// TestCommitOpsConcurrentCommitters: CommitOps calls on one store from
// several goroutines share the store's undo log, serialized; every
// commit applies exactly once, with rollbacks interleaved.
func TestCommitOpsConcurrentCommitters(t *testing.T) {
	d := loadFigure1(t)
	const workers, rounds = 4, 200
	ops := touchOps(4)
	failing := append(touchOps(2), Op{Kind: OpDelete, Table: "TRADE", Key: intKey(999)})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := d.CommitOps(ops); err != nil {
					t.Error(err)
					return
				}
				if err := d.CommitOps(failing); err == nil {
					t.Error("delete of a missing key committed")
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, op := range ops {
		if got := versionOf(d.Table("TRADE"), op.Key); got != workers*rounds {
			t.Errorf("TRADE key %x: version %d, want %d", string(op.Key), got, workers*rounds)
		}
	}
}

// BenchmarkCommitOps commits one transaction of 16 touches to
// already-versioned keys — the replica redo path's unit of work.
func BenchmarkCommitOps(b *testing.B) {
	d := New(custInfoSchema())
	ops := touchOps(16)
	if err := d.CommitOps(ops); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.CommitOps(ops); err != nil {
			b.Fatal(err)
		}
	}
}
