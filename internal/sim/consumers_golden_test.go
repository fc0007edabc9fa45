package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/horticulture"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// consumerGoldenTxns is the generated trace length of every consumer
// pin, the same length the core package's solve pins use.
const consumerGoldenTxns = 2000

// consumerGolden pins, per benchmark at seed 1, the SHA-256 of the
// outputs that classify transactions under a solution outside the
// evaluator: the plain Sweep over k = 2, 4, 8, the static and adaptive
// drift replays' DriftResult JSON, placement.Heat and its Pack onto two
// nodes, Horticulture's solution and best cost, and the serving
// engine's capacity estimate. A change to how any of them counts
// distributed transactions or partitions touched fails here.
var consumerGolden = map[string][5]string{
	"auctionmark": {
		"c8d3585698d7c50d6657f1601d2e09e23cd7cad719b75376bfab978230410cde",
		"b2505e9b07dfd5192a273bf038543020c859e1ac246eced8bc1a0b7fc2ac0261",
		"8cb93413339b0fe286baf91f264fb6f0cfde7e64d52281013d60873840fa08bc",
		"cf0435d0cc086a586a5c77bd05ac00cfc267080bff2bc3473ec64252935afcee",
		"e159a37c6af2947ad4c237ebdc2d3c63109f4b196c28d8f43e564dd291c8cacf",
	},
	"seats": {
		"1b8d4c0ace29fe047cf91fdc4984f5bbe2494590a64f684dd79cbc172e1adf66",
		"c5bb23aa4b64739c8abfae9836eea11dceb81218e94763b40fe190efaecf0ff0",
		"f9c75c586711d8a3826a22347dc6939015f4c6836a090ed2a350aab42aff1509",
		"3f74ffdaad3d4addc5e9fa9d8028276fe7c3a11ca79c83f3d020e2c6daf17300",
		"06516f7a6e849dd3bbe5e3cd905cbaf7dab8f059572d2586adde4eb88ceabdd3",
	},
	"synthetic": {
		"c8fd9bd75c437447ce51f36d4b6c358e1fbcd682dc99fd961b1c8bd590a1e120",
		"1b3ea0a00d0b235e772594f3227721706f360634efb647b7c64a0c7c15c9df51",
		"62c862e4fe80b7cc359ed970ec5465a66654d42b37647df96f8dee65eb7b5dfc",
		"8c28ec12752451b1d162eb0c0a8a5a2f56f056e7e59caf887972355bf98f9dc3",
		"2b1f939515fc5acd729fc8cc176c1dff060d580e8c55c51343ce47129f329ab0",
	},
	"tatp": {
		"3f5ec733c3533a7428d8d8d172cd478f3d8cfe3138c457123937f573b7ecf507",
		"313df92826089eda95b675741416877b212f040e0c3564b9175c595ab57fac68",
		"8bf56bff13af5454093f8a696710f4f8af73e2714d1f0fbd298aa7fa84a83643",
		"5af52452b7c4617c05933c95b36dfa28e8c827d1ef600d4de17ee603de37ee60",
		"06516f7a6e849dd3bbe5e3cd905cbaf7dab8f059572d2586adde4eb88ceabdd3",
	},
	"tpcc": {
		"a3105d11589d0263d777500d5f1fcd3b666bfcdefdeb4c02043b98fd5708a355",
		"feb9d7db4feb901c89c2bd6de71b3f0e71a371ad5681554db0e9fa9c1806979d",
		"afc0c45006f019028348b821f4f5468fc840b1876011582ad784771c212d6907",
		"f2f38d5e248025110b4f9d5ef69d4d6adff7109d39c3a5050b5510b9e3d5184a",
		"0790da6c66fcc15ed089c79525c5bafd434465093fc39928a70ee97b1498c5c9",
	},
	"tpce": {
		"f711c434a0613bbaec5754cfe86db2560c9d9788d67a475a4152e05776be81b2",
		"e84d4af80a4d3c2e6769a48e25e91820a3a3df8fb91ed76d1b0035ef8ff3e143",
		"a73185dcf583ff88e15982511aef92479b5871d5c3a9bd5d81cfb448e75950ac",
		"f1549d225cc3cb88ad97b70b23c2e7e9020ad1358f500be816934f108af3fa3a",
		"18b909c028f5b12b41c41527860fcc9d5566dfc70b6fa38cb6660ef3eda19b2b",
	},
}

func TestConsumerGolden(t *testing.T) {
	names := workloads.Names()
	if len(names) != 6 {
		t.Fatalf("registry holds %d benchmarks, want 6: %v", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			got := consumerPins(t, name, 1)
			want, ok := consumerGolden[name]
			if !ok {
				t.Fatalf("no golden hashes for %s; got %q", name, got)
			}
			labels := [5]string{"sweep", "drift", "heat", "horticulture", "capacity"}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s hash = %s, want %s", labels[i], got[i], want[i])
				}
			}
		})
	}
}

// consumerScale is each benchmark's small test scale (the solve pins'
// scales).
func consumerScale(name string) int {
	switch name {
	case "tpcc":
		return 2
	case "tatp":
		return 50
	default:
		return 30
	}
}

// consumerPins loads one benchmark, splits a generated trace as cmd/jecb
// does (load seed, generate seed+1, split seed+2), partitions the
// training half with JECB at K=4, and hashes each consumer's output on
// the test half.
func consumerPins(t *testing.T, name string, seed int64) [5]string {
	t.Helper()
	ctx := context.Background()
	b, _ := workloads.Get(name)
	d, err := b.Load(workloads.Config{Scale: consumerScale(name), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	procs := workloads.Procedures(b)
	full := workloads.GenerateTrace(b, d, consumerGoldenTxns, seed+1)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(seed+2)))
	solve := func(k int, tr *trace.Trace) (*partition.Solution, error) {
		sol, _, err := core.Partition(ctx, core.Input{DB: d, Procedures: procs, Train: tr}, core.Options{K: k, Seed: seed})
		return sol, err
	}
	sol, err := solve(4, train)
	if err != nil {
		t.Fatal(err)
	}
	var pins [5]string
	pin := func(i int, fill func(h hash.Hash)) {
		h := sha256.New()
		fill(h)
		pins[i] = hex.EncodeToString(h.Sum(nil))
	}

	sweep, err := Sweep(d, test, []int{2, 4, 8}, func(k int) (*partition.Solution, error) {
		return solve(k, train)
	})
	if err != nil {
		t.Fatal(err)
	}
	pin(0, func(h hash.Hash) { writeJSON(t, h, sweep) })

	// The drift replays run the test half grouped by class, so the class
	// mix shifts from window to window and the adaptive detector has
	// something to react to.
	split := byClass(test)
	classes := test.Classes()
	drifted := split[classes[0]]
	for _, c := range classes[1:] {
		drifted = drifted.Concat(split[c])
	}
	repart := func(win *trace.Trace, prev *partition.Solution) (*partition.Solution, error) {
		res, err := core.Repartition(ctx, core.Input{DB: d, Procedures: procs, Train: win}, core.Options{K: 4, Seed: seed}, prev, 0)
		if err != nil {
			return nil, err
		}
		return res.Solution, nil
	}
	pin(1, func(h hash.Hash) {
		for _, mode := range []driftMode{modeStatic, modeAdaptive} {
			res, err := runDrift(ctx, d, sol, drifted,
				DriftConfig{WindowSize: 100, DriftAt: split[classes[0]].Len()}, mode, repart)
			if err != nil {
				t.Fatal(err)
			}
			writeJSON(t, h, res)
		}
	})

	pin(2, func(h hash.Hash) {
		heat, err := placement.Heat(d, sol, test)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := placement.Pack(heat, 2)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, heat, plan.Node, plan.NodeLoads(heat))
	})

	pin(3, func(h hash.Hash) {
		hsol, err := horticulture.Search(horticulture.Input{DB: d, Train: train}, horticulture.Options{K: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		writeJSON(t, h, hsol)
		fmt.Fprintln(h, obs.Default.Gauge("horticulture.best_cost").Value())
	})

	pin(4, func(h hash.Hash) {
		tps, err := serve.EstimateCapacityTPS(d, sol, test)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, tps)
	})
	return pins
}

func writeJSON(t *testing.T, h hash.Hash, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(data)
	h.Write([]byte{'\n'})
}

// byClass groups tr's transactions by class, keeping their order.
func byClass(tr *trace.Trace) map[string]*trace.Trace {
	out := map[string]*trace.Trace{}
	for _, txn := range tr.All() {
		if out[txn.Class] == nil {
			out[txn.Class] = &trace.Trace{}
		}
		out[txn.Class].Append(*txn)
	}
	return out
}
