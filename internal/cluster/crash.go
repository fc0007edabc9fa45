package cluster

import "repro/internal/faults"

// Round is what a crash point's phase rule sees of one commit round.
type Round struct {
	// Coord is the round's executing coordinator.
	Coord int
	// WriteParts lists the partitions receiving write effects, sorted.
	WriteParts []int
	// Distributed reports whether the round runs 2PC.
	Distributed bool
}

// PhaseRules maps a crash phase to the test a commit round must pass to
// count toward a crash point scripted on node. A phase without a rule
// never fires.
type PhaseRules map[string]func(node int, r Round) bool

// TwoPCRules returns the 2PC phases' rules: before-prepare counts
// distributed rounds node takes part in without coordinating;
// before-commit and after-decision count distributed rounds node
// coordinates.
func TwoPCRules() PhaseRules {
	coordinates := func(node int, r Round) bool { return r.Distributed && node == r.Coord }
	return PhaseRules{
		faults.PhaseBeforePrepare: func(node int, r Round) bool {
			return r.Distributed && node != r.Coord && Has(r.WriteParts, node)
		},
		faults.PhaseBeforeCommit:  coordinates,
		faults.PhaseAfterDecision: coordinates,
	}
}

// Crash is one scripted crash point and its qualifying-round counter.
type Crash struct {
	faults.CrashPoint
	count int
	fired bool
}

// Rearm lets a fired point fire again on its next qualifying round, for
// an engine whose round could not realize the crash.
func (c *Crash) Rearm() { c.fired = false }

// CrashScript fires a scenario's crash points: each point counts the
// rounds its phase rule admits and fires on the Seq-th.
type CrashScript struct {
	rules  PhaseRules
	points []Crash
}

// NewCrashScript scripts points under rules.
func NewCrashScript(points []faults.CrashPoint, rules PhaseRules) *CrashScript {
	s := &CrashScript{rules: rules, points: make([]Crash, len(points))}
	for i, cp := range points {
		s.points[i] = Crash{CrashPoint: cp}
	}
	return s
}

// Next counts r toward every unfired point whose node is not dead and
// whose phase rule admits r, and returns the first point that reaches
// its Seq-th qualifying round, or nil. A nil dead treats every node as
// alive.
func (s *CrashScript) Next(r Round, dead func(node int) bool) *Crash {
	var fire *Crash
	for i := range s.points {
		c := &s.points[i]
		if c.fired || dead != nil && dead(c.Node) {
			continue
		}
		rule := s.rules[c.Phase]
		if rule == nil || !rule(c.Node, r) {
			continue
		}
		c.count++
		if fire == nil && c.count >= c.Seq {
			c.fired = true
			fire = c
		}
	}
	return fire
}
