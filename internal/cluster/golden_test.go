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

	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/repl"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
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
// dump, and every WAL file under the run's directory. The chaos runs
// write no WAL, so their third hash is that of an empty directory.
var goldenEngines = map[string][3]string{
	"chaos/rolling": {
		"04be8b12b316ff642e92cdc7b7a9d3f5d6f2e6d116826cc7c1dd313b4635469b",
		"ba972223871ceac92fa76f7fd5f0f895684a0ea17e25c20f6b8b820799d90b1e",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	},
	"chaos/flaky-network": {
		"c69272435f6e2ca4d7d290b6704414b33f0289e5711fb4d6b5282812801ead17",
		"cb24d4fb74e9638553f50acf595486f63ad4446d6ee771b9ec551c736fd39c22",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	},
	"durable/part-crash": {
		"99ea381a4641950aa28d04c4e7c90e9c2ee4c7349af68c7adb1b738a9aeccee9",
		"823bab5f801069da6d07c61233178041e319b852f40a846935e0e88cd27f082b",
		"c42a09425e117389ae23acd6aca2306d1257421890f3da029081bbc757d54b5f",
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
		"08d38e6eba13b594739a027d7018bf78f992319040bc1d8d942109494c05d8bf",
		"8267af9967b9161dea5b0ddb66b71ffd77a92694964ea3620e896f90b65e8288",
		"eb2f5bd8c1b1dc7737e31e309359d0bee5826d5a0434fa46368242ed32669b5c",
	},
	"twopc/bus/prep-crash": {
		"016d2a4467a271c180a70ac63e4bcf83a4d62077748cc836fe4f30e3f8cf9041",
		"91d3f9a0859295f1c4e86c13ab546e2febf0dcea37cb5549ccc714106512308d",
		"355ad0a8a222c93d9fd71ba94a7a0af67b790512515b59402e3629928c857fd3",
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
	"repl/async/single-crash": {
		"419ac94e127a3aacdeb28ca74ffdef7244051bee76a63a403354d30a7c9b503a",
		"0d340e461fc945b4a12cca89bd5bb2799b70a90d453c5c0c040782308c04413d",
		"a6bf1b01b39fd87a49126220224d1eba315be2681987ccf0f622c86a7707db21",
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

// engineFunc runs one engine on the golden fixture under a fault
// scenario, writing its logs under dir.
type engineFunc func(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	sc *faults.Scenario, dir string) (any, error)

// engineRun is one pinned engine configuration.
type engineRun struct {
	name   string
	faults string
	run    engineFunc
}

func chaosEngine(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	sc *faults.Scenario, dir string) (any, error) {
	return sim.RunChaos(ctx, d, sol, tr, sim.ChaosConfig{Scenario: sc, Seed: goldenSeed})
}

func durableEngine(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	sc *faults.Scenario, dir string) (any, error) {
	return sim.RunDurable(ctx, d, sol, tr, sim.DurableConfig{
		ChaosConfig: sim.ChaosConfig{Scenario: sc, Seed: goldenSeed}, WALDir: dir,
	})
}

func twopcEngine(cfg twopc.Config) engineFunc {
	return func(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
		sc *faults.Scenario, dir string) (any, error) {
		cfg.Scenario, cfg.Seed, cfg.WALDir = sc, goldenSeed, dir
		return twopc.Run(ctx, d, sol, tr, cfg)
	}
}

func replEngine(rule string) engineFunc {
	return func(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
		sc *faults.Scenario, dir string) (any, error) {
		return repl.Run(ctx, d, sol, tr, repl.Config{Scenario: sc, Seed: goldenSeed, WALDir: dir, CommitRule: rule})
	}
}

func serveEngine(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	sc *faults.Scenario, dir string) (any, error) {
	return serve.Run(ctx, d, sol, tr, serve.Config{
		Load:       serve.LoadConfig{LoadFactor: 2, DurationSec: 1},
		Admission:  serve.AdmissionConfig{Enabled: true},
		Procedures: workloads.Procedures(synthetic.New()),
		Scenario:   sc,
		Seed:       goldenSeed,
		WALDir:     dir,
	})
}

func engineRuns() []engineRun {
	var runs []engineRun
	for _, f := range []string{"rolling", "flaky-network"} {
		runs = append(runs, engineRun{name: "chaos/" + f, faults: f, run: chaosEngine})
	}
	for _, f := range []string{"part-crash", "prep-crash", "coord-crash", "flaky-network"} {
		runs = append(runs, engineRun{name: "durable/" + f, faults: f, run: durableEngine})
	}
	runs = append(runs, engineRun{name: "twopc/bus/prep-crash", faults: "prep-crash",
		run: twopcEngine(twopc.Config{Transport: "bus"})})
	runs = append(runs, engineRun{name: "twopc/bus-standby/coord-crash", faults: "coord-crash",
		run: twopcEngine(twopc.Config{Transport: "bus", Standby: true})})
	for _, f := range []string{"primary-crash-mid-ship", "backup-crash-mid-catchup"} {
		runs = append(runs, engineRun{name: "repl/quorum/" + f, faults: f, run: replEngine(repl.RuleQuorum)})
	}
	runs = append(runs, engineRun{name: "repl/async/single-crash", faults: "single-crash",
		run: replEngine(repl.RuleAsync)})
	runs = append(runs, engineRun{name: "serve/wal/flaky-network", faults: "flaky-network", run: serveEngine})
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
			ctx := obs.WithRecorder(context.Background(), rec)

			before := runtime.NumGoroutine()
			res, err := er.run(ctx, d, sol, tr, sc, dir)
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

// resultHash hashes an engine's Result JSON.
func resultHash(t *testing.T, res any) string {
	t.Helper()
	data, err := json.Marshal(res)
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

// TestDurableAndTwoPCLogsAgree holds the two engines that run 2PC over
// per-partition logs to one participant: on the golden fixture, the
// in-process durable replay and networked 2PC over the bus (no standby)
// must write byte-identical WAL directories. flaky-network, single-crash
// and rolling are left out: the two engines sample message loss and
// down-windows differently, so their rounds diverge before any log does.
func TestDurableAndTwoPCLogsAgree(t *testing.T) {
	b := synthetic.New()
	d, err := b.Load(workloads.Config{Scale: goldenScale, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	tr := workloads.GenerateTrace(b, d, goldenTxns, goldenSeed+1)
	sol := groupSolution(goldenK)
	for _, f := range []string{"none", "part-crash", "prep-crash", "coord-crash"} {
		t.Run(f, func(t *testing.T) {
			sc, err := faults.Builtin(f, goldenK)
			if err != nil {
				t.Fatal(err)
			}
			walHash := func(run engineFunc) string {
				dir := t.TempDir()
				if _, err := run(context.Background(), d, sol, tr, sc, dir); err != nil {
					t.Fatal(err)
				}
				return dirHash(t, dir)
			}
			if durable, net := walHash(durableEngine), walHash(twopcEngine(twopc.Config{Transport: "bus"})); durable != net {
				t.Errorf("WAL directories differ: durable %s, twopc %s", durable, net)
			}
		})
	}
}
