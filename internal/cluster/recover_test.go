package cluster_test

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/wal"
)

// TestRecoverAndCheckErrors covers the epilogue's failure paths: the
// oracle's journal replay fails, recovery fails on a log it cannot read,
// or both. Each returns the error a recovery followed by the oracle
// replay returns (recovery's, when both fail), records no EvRecover
// event, and leaves no goroutine behind.
func TestRecoverAndCheckErrors(t *testing.T) {
	sc := fixture.CustInfoSchema()
	const k = 2
	// A long journal keeps the oracle busy while recovery fails; the bad
	// journal ends in an op on a table the schema does not have.
	good, bad := &cluster.Journal{}, &cluster.Journal{}
	var w cluster.Writes
	touch := func(j *cluster.Journal, table string, key value.Key, p int) {
		txn := &trace.Txn{Accesses: []trace.Access{{Table: table, Key: key, Write: true}}}
		cluster.WriteEffects(&w, txn, []int32{int32(p)}, k, p)
		j.Add(&w)
	}
	for i := 0; i < 20000; i++ {
		key := value.MakeKey(value.NewInt(int64(i % 500)))
		touch(good, "TRADE", key, i%k)
		touch(bad, "TRADE", key, i%k)
	}
	touch(bad, "NOPE", "", 1)

	cleanDir := func(t *testing.T) string { return t.TempDir() }
	corruptDir := func(t *testing.T) string {
		// A partition "log" that is a directory cannot be read.
		dir := t.TempDir()
		if err := os.Mkdir(wal.PartitionLogPath(dir, 0), 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cases := []struct {
		name    string
		dir     func(*testing.T) string
		journal *cluster.Journal
		prefix  string
	}{
		{"oracle replay fails", cleanDir, bad, `cluster: oracle replay: db: malformed op encoding: apply touch: unknown table "NOPE"`},
		{"recovery fails", corruptDir, good, "wal: recover partition 0: "},
		{"both fail", corruptDir, bad, "wal: recover partition 0: "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := c.dir(t)
			rec := obs.NewRecorder(64)
			before := runtime.NumGoroutine()
			rc, err := cluster.RecoverAndCheck(sc, dir, k, c.journal, rec, 1)
			if err == nil || !strings.HasPrefix(err.Error(), c.prefix) {
				t.Fatalf("err = %v, want prefix %q", err, c.prefix)
			}
			if rc != nil {
				t.Fatalf("recovery %+v returned with error %v", rc, err)
			}
			if n := len(rec.Events()); n != 0 {
				t.Fatalf("%d events recorded on a failed recover-and-check", n)
			}
			waitGoroutines(t, before)
		})
	}

	// The clean path leaves no goroutine behind either.
	before := runtime.NumGoroutine()
	if _, err := cluster.RecoverAndCheck(sc, t.TempDir(), k, good, nil, 0); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}
