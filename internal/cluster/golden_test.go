package cluster_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/repl"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/twopc"
	"repro/internal/workloads"
	"repro/internal/workloads/synthetic"
)

// The golden runs share one synthetic database, trace and solution: K=4,
// PARENT and CHILD hashed by P_GROUP through the CHILD→PARENT join path,
// so ByGroup transactions commit locally and ByTag transactions run 2PC.
// The solution is built by hand so the pins move only when an engine
// changes, not when the partitioner does.
const (
	goldenK      = 4
	goldenSeed   = 1
	goldenTxns   = 600
	goldenScale  = 64
	goldenRecCap = 1 << 16
)

// goldenEngines lists each run's SHA-256 triple: Result JSON, flight
// dump, and every WAL file under the run's directory.
var goldenEngines = map[string][3]string{
	"durable/part-crash": {
		"3eabb624683ba9eaf5264cff997ce660397a357e72bd81343fa6ea4c3a1415f0",
		"3cbaf8704bcf7973ad4a60f513e41e822b76c2600e2a71e875c47a48825b8b91",
		"55475e96b8eff532edcb5b8b555ed5e48102c47eac9b27c3e7990c71fb97e5b8",
	},
	"durable/prep-crash": {
		"eeb7894a088c59a677676dbc6ec0066ec3e082d9ce18b4c4353b6d0ca02a4de8",
		"9d05c87e94290c121e2f5ade1857dfd3ca1b34c4d45133fe9f74bef024e0742d",
		"355ad0a8a222c93d9fd71ba94a7a0af67b790512515b59402e3629928c857fd3",
	},
	"durable/coord-crash": {
		"0bfe0ae98317410ed2e25b0b1a6a9cb6e0fa12b324068547352a03952d109da9",
		"bc6556488e0efb1384490f51de195a24d7da61f245affce02396d2eaeb0839af",
		"2cca33d9fb8b53ce8c787cecccd78123a9243bd079e574157dbe18850fe04660",
	},
	"durable/flaky-network": {
		"87cdddb2a0cfb0569a016d9d4d8cbd07384b3b5c172eea911a3587cff0854dca",
		"6ce39956af1b4c73a1bfeece5da1a3a3fccf31e81b19597082000dab582e5695",
		"add1a23e82e9dc9a5fabc212884b430e006f1a15953c6a914e1d75cc0d0c1172",
	},
	"twopc/bus-standby/coord-crash": {
		"a5225b34a868bf5d74b073c49a4312d1fa0bbf2ee9a7342baff0505108a3f8a3",
		"61144b686167c2ffe86c49bbe43f5fd8a44647a4a1ea27d01d48c5e4f10dab32",
		"fa6ed216487fc5ef67fc2d86ffa462b4f2ae331c5745896bf7da810c98335d46",
	},
	"repl/quorum/primary-crash-mid-ship": {
		"2ab345c93cdd872c098ed1cb5cb4f4856fe452cccda1251aa360f325ecae4657",
		"de8d938c57c8bc22f272209b72b845f612a12450ed5297962f5a09d471d71bc9",
		"0526ce8ee79de47f8b9c5e7b33bdf958b1aba0d485a654b50465da6517840ae5",
	},
	"repl/quorum/backup-crash-mid-catchup": {
		"77a46a4442cd45c93493ab6832d0df63d12141c3306f8bb9ce3af8abdd2694ce",
		"4e6ec3a312eecc4742f136da701467768b24bb094d27c438881176bf9ccf375f",
		"68db11eddf21cea1580c82a4776923c83a3e9adffb34cb3d649c8dc3989ebc60",
	},
	"serve/wal/flaky-network": {
		"38683e6ad3cebfcc8c5fa2ff24f4567dfedea9bc3f04fac91170e39285ad9a32",
		"f3080c307928bb1b9ddbc90a0e059447503a985456a07a8deae232c18cac6e9f",
		"e3844c5267c81f651ed68b4d5ffb33fefca8d892aa26de9422bf2d1628374576",
	},
}

func groupSolution(k int) *partition.Solution {
	group := func(nodes ...schema.ColumnSet) *partition.TableSolution {
		return partition.NewByPath(nodes[0].Table, schema.NewJoinPath(nodes...), partition.NewHash(k))
	}
	sol := partition.NewSolution("by-group", k)
	sol.Set(group(
		schema.ColumnSet{Table: "PARENT", Columns: []string{"P_ID"}},
		schema.ColumnSet{Table: "PARENT", Columns: []string{"P_GROUP"}},
	))
	sol.Set(group(
		schema.ColumnSet{Table: "CHILD", Columns: []string{"C_ID"}},
		schema.ColumnSet{Table: "CHILD", Columns: []string{"C_P_ID"}},
		schema.ColumnSet{Table: "PARENT", Columns: []string{"P_ID"}},
		schema.ColumnSet{Table: "PARENT", Columns: []string{"P_GROUP"}},
	))
	return sol
}

// engineRun is one pinned engine configuration.
type engineRun struct {
	name   string
	mode   sim.Mode
	faults string
	twopc  twopc.Config
	repl   repl.Config
	serve  bool
}

func engineRuns() []engineRun {
	var runs []engineRun
	for _, f := range []string{"part-crash", "prep-crash", "coord-crash", "flaky-network"} {
		runs = append(runs, engineRun{name: "durable/" + f, mode: sim.ModeDurable, faults: f})
	}
	runs = append(runs, engineRun{name: "twopc/bus-standby/coord-crash", mode: sim.ModeTwoPC,
		faults: "coord-crash", twopc: twopc.Config{Transport: "bus", Standby: true}})
	for _, f := range []string{"primary-crash-mid-ship", "backup-crash-mid-catchup"} {
		runs = append(runs, engineRun{name: "repl/quorum/" + f, mode: sim.ModeReplicated,
			faults: f, repl: repl.Config{CommitRule: repl.RuleQuorum}})
	}
	runs = append(runs, engineRun{name: "serve/wal/flaky-network", mode: sim.ModeServe,
		faults: "flaky-network", serve: true})
	return runs
}

// TestEngineGolden pins the bytes every commit engine writes: for each
// run, the SHA-256 of its Result JSON, its flight-recorder dump, and its
// WAL directory. After each run, every goroutine the engine started must
// have exited.
func TestEngineGolden(t *testing.T) {
	b := synthetic.New()
	d, err := b.Load(workloads.Config{Scale: goldenScale, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	tr := workloads.GenerateTrace(b, d, goldenTxns, goldenSeed+1)
	sol := groupSolution(goldenK)

	for _, er := range engineRuns() {
		t.Run(er.name, func(t *testing.T) {
			sc, err := faults.Builtin(er.faults, goldenK)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			rec := obs.NewRecorder(goldenRecCap)
			scenario := sim.Scenario{
				Mode: er.mode, DB: d, Solution: sol, Trace: tr,
				Faults: sc, Seed: goldenSeed, WALDir: dir, Recorder: rec,
				TwoPC: er.twopc, Repl: er.repl,
			}
			if er.serve {
				scenario.Serve = serve.Config{
					Load:       serve.LoadConfig{LoadFactor: 2, DurationSec: 1},
					Admission:  serve.AdmissionConfig{Enabled: true},
					Procedures: workloads.Procedures(b),
				}
			}

			before := runtime.NumGoroutine()
			res, err := sim.New(scenario).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, before)

			got := [3]string{resultHash(t, res), dumpHash(t, rec), dirHash(t, dir)}
			want, ok := goldenEngines[er.name]
			if !ok {
				t.Fatalf("no golden hashes for %s; got %q", er.name, got)
			}
			if got != want {
				t.Errorf("engine hashes = %q, want %q (%s)", got, want, res)
			}
		})
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// its pre-run value within a short deadline.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running after the run, %d before\n%s", n, before, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// resultHash hashes the selected engine's Result JSON.
func resultHash(t *testing.T, r *sim.RunResult) string {
	t.Helper()
	var v any
	switch {
	case r.Durable != nil:
		v = r.Durable
	case r.TwoPC != nil:
		v = r.TwoPC
	case r.Repl != nil:
		v = r.Repl
	case r.Serve != nil:
		v = r.Serve
	default:
		t.Fatalf("no engine result for mode %s", r.Mode)
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return hashOf(data)
}

func dumpHash(t *testing.T, rec *obs.Recorder) string {
	t.Helper()
	h := sha256.New()
	if err := rec.DumpJSON(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dirHash hashes every file under dir, by name and content, in name
// order.
func dirHash(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
