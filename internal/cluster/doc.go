// Package cluster holds the commit-path rules the replay engines share
// (sim's durable replay, twopc, repl and serve). The engine golden test
// in this package pins what those engines write — Result JSON, flight
// dumps and WAL files — so the rules can move without changing a byte.
package cluster
