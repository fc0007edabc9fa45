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
// presumed-abort resolution, records one run-level EvRecover event per
// partition in partition order at virtual time vt, re-executes exactly
// the committed journal on k fresh stores, and compares the combined
// per-table digests.
func RecoverAndCheck(sc *schema.Schema, dir string, k int, committed [][]PartOp, rec *obs.Recorder, vt float64) (*Recovery, error) {
	cr, err := wal.RecoverDir(sc, dir)
	if err != nil {
		return nil, err
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

	oracle := make([]*db.DB, k)
	for p := range oracle {
		oracle[p] = db.New(sc)
	}
	for _, ops := range committed {
		for _, po := range ops {
			if err := oracle[po.Part].Apply(po.Op); err != nil {
				return nil, fmt.Errorf("cluster: oracle replay: %w", err)
			}
		}
	}
	want := wal.CombineDigests(oracle)
	got := cr.TableDigests()
	out.OracleOK = len(want) == len(got)
	out.TableDigests = make(map[string]string, len(got))
	for name, dg := range got {
		out.TableDigests[name] = fmt.Sprintf("%016x", dg)
		if want[name] != dg {
			out.OracleOK = false
		}
	}
	return out, nil
}
