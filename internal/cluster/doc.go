// Package cluster holds the replay driver and the commit-path rules the
// replay engines share. Replay owns the per-transaction arrival, attempt
// and backoff loop of sim's chaos and durable replays, twopc and repl;
// each engine plugs in one per-attempt Step. Member is one partition's
// log and store — the participant side of local commit and 2PC, with the
// one checkpoint rule and the three 2PC crash shapes — which sim's
// durable replay (through LocalWAL, a slice of members), twopc's
// participants and serve commit through. The engine golden test in this
// package pins what those engines write — Result JSON, flight dumps and
// WAL files — so the rules can move without changing a byte.
package cluster
