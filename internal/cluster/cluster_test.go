package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/value"
	"repro/internal/wal"
)

func TestCrashScriptFiresOnSeqthQualifyingRound(t *testing.T) {
	s := NewCrashScript([]faults.CrashPoint{
		{Node: 1, Phase: faults.PhaseBeforePrepare, Seq: 2},
		{Node: 0, Phase: faults.PhaseAfterDecision, Seq: 1},
		{Node: 0, Phase: faults.PhasePrimaryMidShip, Seq: 1}, // no rule: never fires
	}, TwoPCRules())
	local := Round{Coord: 1, WriteParts: []int{1}}
	dist := Round{Coord: 2, WriteParts: []int{1, 2}, Distributed: true}

	if c := s.Next(local, nil); c != nil {
		t.Fatalf("local round fired %+v", c.CrashPoint)
	}
	if c := s.Next(dist, nil); c != nil {
		t.Fatalf("first qualifying round fired %+v", c.CrashPoint)
	}
	// Node 1 is dead: its point neither counts nor fires.
	if c := s.Next(dist, func(n int) bool { return n == 1 }); c != nil {
		t.Fatalf("dead node's point fired %+v", c.CrashPoint)
	}
	c := s.Next(dist, nil)
	if c == nil || c.Node != 1 || c.Phase != faults.PhaseBeforePrepare {
		t.Fatalf("second qualifying round fired %+v, want node 1 before-prepare", c)
	}
	if c := s.Next(dist, nil); c != nil {
		t.Fatalf("fired point fired again: %+v", c.CrashPoint)
	}

	// Both 2PC coordinator phases count node 0's distributed rounds; a
	// rearmed point fires on its next qualifying round.
	coord := Round{Coord: 0, WriteParts: []int{0, 3}, Distributed: true}
	c = s.Next(coord, nil)
	if c == nil || c.Phase != faults.PhaseAfterDecision {
		t.Fatalf("coordinator round fired %+v, want after-decision", c)
	}
	c.Rearm()
	if again := s.Next(coord, nil); again != c {
		t.Fatalf("rearmed point: got %+v, want it to fire again", again)
	}
}

func TestLocalWALMemoryOnly(t *testing.T) {
	l, err := NewLocalWAL(fixture.CustInfoSchema(), 2, "", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Members) != 2 || l.Members[0].log != nil || l.Members[1].log != nil {
		t.Fatalf("memory-only cluster: %d members, logs %v %v", len(l.Members), l.Members[0].log, l.Members[1].log)
	}
	if err := l.Abort2PC(1, 0, &Writes{Parts: []int{0, 1}, ends: []int{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if n := l.WALBytes(); n != 0 {
		t.Fatalf("memory-only WALBytes = %d", n)
	}
	l.Close()
}

// touchBodies is one TRADE touch, as a write body.
func touchBodies() [][]byte {
	op := db.Op{Kind: db.OpTouch, Table: "TRADE", Key: value.MakeKey(value.NewInt(1))}
	return [][]byte{op.Encode(nil)}
}

func newTestMember(t *testing.T, every int) (*Member, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.wal")
	lg, err := wal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMember(fixture.CustInfoSchema(), lg, every)
	t.Cleanup(m.Close)
	return m, path
}

// TestMemberCheckpointRule pins the one checkpoint rule: every applied
// commit counts toward the cadence, but a member checkpoints only when
// nothing is prepared on it — not even the transaction whose decision
// it is applying.
func TestMemberCheckpointRule(t *testing.T) {
	m, _ := newTestMember(t, 2)
	if err := m.CommitLocal(1, touchBodies()); err != nil {
		t.Fatal(err)
	}
	if err := m.Prepare(2, 0, touchBodies()); err != nil {
		t.Fatal(err)
	}
	if !m.InDoubt() || !m.IsPrepared(2) {
		t.Fatal("prepared transaction not held")
	}
	if err := m.Decide(2, true); err != nil {
		t.Fatal(err)
	}
	if m.InDoubt() || m.Checkpoints() != 0 {
		t.Fatalf("after the decided apply: in doubt %v, %d checkpoints, want none", m.InDoubt(), m.Checkpoints())
	}
	if err := m.CommitLocal(3, touchBodies()); err != nil {
		t.Fatal(err)
	}
	if m.Checkpoints() != 1 {
		t.Fatalf("checkpoints = %d after the next local commit, want 1", m.Checkpoints())
	}
}

// TestMemberCrashShapes pins the log each 2PC crash shape leaves: the
// record types of its clean prefix and the torn bytes after it. A
// crashed member holds nothing prepared, reports no log bytes and logs
// nothing again.
func TestMemberCrashShapes(t *testing.T) {
	types := func(recs []wal.Record) []wal.RecType {
		out := make([]wal.RecType, len(recs))
		for i, r := range recs {
			out[i] = r.Type
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		crash func(m *Member) error
		clean []wal.RecType
		torn  int64
	}{
		{"in-prepare", func(m *Member) error { return m.CrashInPrepare(1, 0, touchBodies()) },
			[]wal.RecType{wal.RecBegin, wal.RecWrite}, 3},
		{"in-commit", func(m *Member) error { return m.CrashInCommit(1) },
			[]wal.RecType{wal.RecBegin, wal.RecWrite, wal.RecPrepare}, 5},
		{"after-commit", func(m *Member) error { return m.CrashAfterCommit(1) },
			[]wal.RecType{wal.RecBegin, wal.RecWrite, wal.RecPrepare, wal.RecCommit}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, path := newTestMember(t, 1)
			if tc.name != "in-prepare" {
				if err := m.Prepare(1, 0, touchBodies()); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.crash(m); err != nil {
				t.Fatal(err)
			}
			if m.InDoubt() || m.WALBytes() != 0 {
				t.Fatalf("crashed member: in doubt %v, %d log bytes", m.InDoubt(), m.WALBytes())
			}
			if err := m.Decide(1, false); err != nil {
				t.Fatal(err)
			}
			recs, clean, err := wal.ParseFile(path)
			if got := types(recs); !slices.Equal(got, tc.clean) {
				t.Fatalf("clean records %v, want %v", got, tc.clean)
			}
			info, statErr := os.Stat(path)
			if statErr != nil {
				t.Fatal(statErr)
			}
			if torn := info.Size() - clean; torn != tc.torn {
				t.Fatalf("%d torn bytes, want %d", torn, tc.torn)
			}
			if (tc.torn > 0) != errors.Is(err, wal.ErrTornTail) {
				t.Fatalf("parse error %v with %d torn bytes", err, tc.torn)
			}
		})
	}
}
