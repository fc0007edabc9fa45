package cluster

import (
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/wal"
)

// Recovery is the outcome of the end-of-run recover-and-check.
type Recovery struct {
	TornTails        int
	InDoubtCommitted int
	InDoubtAborted   int
	RecoveredCommits int
	// TableDigests is the recovered cluster state, one hex digest per
	// table; OracleOK reports whether it is byte-identical to a
	// fault-free re-execution of exactly the committed set.
	TableDigests map[string]string
	OracleOK     bool
}

// RecoverAndCheck runs after the end-of-run full-cluster crash, once
// every partition log under dir is closed. It replays the logs with
// presumed-abort resolution and, beside it on a second goroutine,
// re-executes exactly the committed journal on k fresh stores; then it
// records one run-level EvRecover event per partition in partition order
// at virtual time vt and compares the combined per-table digests. When
// both sides fail, the recovery error is the one returned.
func RecoverAndCheck(sc *schema.Schema, dir string, k int, committed *Journal, rec *obs.Recorder, vt float64) (*Recovery, error) {
	type oracleResult struct {
		want map[string]uint64
		err  error
	}
	oracleDone := make(chan oracleResult, 1)
	go func() {
		want, err := replayOracle(sc, k, committed)
		oracleDone <- oracleResult{want, err}
	}()
	cr, err := wal.RecoverDir(sc, dir)
	var got map[string]uint64
	if err == nil {
		got = cr.TableDigests()
	}
	oracle := <-oracleDone
	if err != nil {
		return nil, err
	}
	if oracle.err != nil {
		return nil, oracle.err
	}

	out := &Recovery{
		TornTails:        cr.TornTails,
		InDoubtCommitted: cr.InDoubtCommitted,
		InDoubtAborted:   cr.InDoubtAborted,
	}
	partIDs := make([]int, 0, len(cr.Parts))
	for p := range cr.Parts {
		partIDs = append(partIDs, p)
	}
	sort.Ints(partIDs)
	for _, p := range partIDs {
		out.RecoveredCommits += len(cr.Parts[p].Committed)
		rec.Record(0, obs.EvRecover, p, 0, vt, int64(len(cr.Parts[p].Committed)))
	}

	out.OracleOK = len(oracle.want) == len(got)
	out.TableDigests = make(map[string]string, len(got))
	for name, dg := range got {
		out.TableDigests[name] = fmt.Sprintf("%016x", dg)
		if oracle.want[name] != dg {
			out.OracleOK = false
		}
	}
	return out, nil
}

// replayOracle re-executes the committed journal on k fresh stores —
// decoding each body where it applies — and returns their combined
// per-table digests.
func replayOracle(sc *schema.Schema, k int, committed *Journal) (map[string]uint64, error) {
	oracle := make([]*db.DB, k)
	for p := range oracle {
		oracle[p] = db.New(sc)
	}
	for i := 0; i < committed.Len(); i++ {
		for p, body := range committed.Txn(i) {
			op, err := oracle[p].DecodeOp(body)
			if err == nil {
				err = oracle[p].Apply(op)
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: oracle replay: %w", err)
			}
		}
	}
	return wal.CombineDigests(oracle), nil
}
