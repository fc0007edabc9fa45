// Package cluster holds the replay driver and the commit-path rules the
// replay engines share. Replay owns the per-transaction arrival, attempt
// and backoff loop of sim's chaos and durable replays, twopc and repl;
// each engine plugs in one per-attempt Step. serve's event-heap engine
// shares WriteEffects and LocalWAL. The engine golden test in this
// package pins what those engines write — Result JSON, flight dumps and
// WAL files — so the rules can move without changing a byte.
package cluster
