package workloads_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// goldenTxns is the generated trace length per (benchmark, seed) case:
// long enough that every class of every benchmark runs, including the
// ones that delete rows they looked up (TPC-C Delivery, TPC-E Market-Feed).
const goldenTxns = 2000

// goldenTraces pins the SHA-256 of the serialized training and testing
// halves generated at each benchmark's small test scale. Load, GenerateTrace
// and TrainTest are seeded as cmd/jecb seeds them (seed, seed+1, seed+2).
// A change to the store, the collector or a workload driver that alters
// any generated trace fails here.
var goldenTraces = map[string][2]string{
	"auctionmark/seed1": {
		"3ba908a661ab8547f405cb65257030e54328d7c139d1a0591c21fa56aa4259ed",
		"e139cff622952d15b1083dbc8dc76c73fbc13db100751948e7d5bf4f3ce79405",
	},
	"auctionmark/seed7": {
		"07c7583f663e4d5d4c862cd25617715e71635449d15d0452f746160d0053712a",
		"41b3943bbc85f464ad35fec1a35540c91f047acf70ee7ce66df63b2685ad517a",
	},
	"seats/seed1": {
		"f9164e62400b54c093cdaba0a6f282d0936659ab73e75e777f8ab2c16a15fa91",
		"ac4430690ea31db632fd8ca2f2cff9bf364aa0dc75fef3571cd55033222cb4d9",
	},
	"seats/seed7": {
		"027c63b85cefe95d82af73da7c61cee0b14a5dda704197e1494de19aa7c77ae7",
		"be07ba9ee1f669ebece666dcbd3991471ed763411ceff7cbf4d708b88e6b0731",
	},
	"synthetic/seed1": {
		"d0fffb8357c4f9e3eea3f43026cc6beccaf77c186514c9ae00eadbeb94de66c9",
		"e0e5fddc21d213bece08b8a7ec7fec831fcd8f681cf3c7eafb1dac80178d9d47",
	},
	"synthetic/seed7": {
		"1fae36b934f3e4bf7a09d24f139876c1d1224adbafb36f5cd0c22571b2b87074",
		"d90bcbdbf686f008d4f08b27393b910f5b4405bfb0dafc310f9b33919ca5f28a",
	},
	"tatp/seed1": {
		"a2abd58b8054fa3320894bda56f5e244cc9783bc111ce8a43dde199a1ab4a226",
		"b037a0a4575ccdb99e1cfd343cf3460d66c666169a51637f3799e0e57c01d310",
	},
	"tatp/seed7": {
		"cbff0d370ad63256c7d5713bef0da4c418b03262f5e29dc3a6091f415c808703",
		"5f155199a39c5169f6d800753494a82151f77eb1ca34b0974e03bc1c89809851",
	},
	"tpcc/seed1": {
		"c61c7c5c97cf1faa4eab248a7ec7c0aebb6e1ffb1cbbfd914e8db1263ab1c62a",
		"a0d4a47569cfd76e81abc3f6aa2821c3b15216f43877d3ce9d57038a98d59f15",
	},
	"tpcc/seed7": {
		"d18c415f1c1aeca2fd746ccb3f4518539668452430d0181715d0d84e6235d09b",
		"28a28ec3e9405acd9950256f3adbd07cf5b442c091dcad309322a0dcfcfd9ddd",
	},
	"tpce/seed1": {
		"a6ef4cf17a915312ab7f3cbf286e443cec031d80153cd17262184f570c75bca9",
		"428e75ee3b5fc22aa3aa13f168f310ab95b9e25d17a42dd56f6b96088e687c09",
	},
	"tpce/seed7": {
		"7583d740a54d16a8de9bd6466cbccff9aa2c7e065310ab9da4081a371ec4f252",
		"f11306ddc1312ff005ad56ac9d526e2056dc08ff56e08f632d1fffa822abd2b9",
	},
}

func TestGenerateTraceGolden(t *testing.T) {
	for _, n := range workloads.Names() {
		for _, seed := range []int64{1, 7} {
			name := fmt.Sprintf("%s/seed%d", n, seed)
			t.Run(name, func(t *testing.T) {
				b, _ := workloads.Get(n)
				d, err := b.Load(workloads.Config{Scale: smallScale(n), Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				full := workloads.GenerateTrace(b, d, goldenTxns, seed+1)
				if got, want := len(full.Classes()), len(b.Classes()); got != want {
					t.Errorf("trace covers %d of %d classes", got, want)
				}
				train, test := full.TrainTest(0.5, rand.New(rand.NewSource(seed+2)))
				got := [2]string{traceHash(t, train), traceHash(t, test)}
				want, ok := goldenTraces[name]
				if !ok {
					t.Fatalf("no golden hashes for %s; got %q", name, got)
				}
				if got != want {
					t.Errorf("trace hashes = %q, want %q", got, want)
				}
			})
		}
	}
}

func traceHash(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	h := sha256.New()
	if _, err := tr.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
