package cluster

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/fixture"
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
	l, err := NewLocalWAL(fixture.CustInfoSchema(), 2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Stores) != 2 || l.Logs[0] != nil || l.Logs[1] != nil {
		t.Fatalf("memory-only cluster: %d stores, logs %v", len(l.Stores), l.Logs)
	}
	if err := l.Abort2PC(1, 0, []int{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if n := l.WALBytes(); n != 0 {
		t.Fatalf("memory-only WALBytes = %d", n)
	}
	l.Close()
}
