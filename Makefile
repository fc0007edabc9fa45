# JECB reproduction — build, verification, and artifact targets.

GO ?= go

.PHONY: all build test verify bench bench-export bigtrace experiments chaos drift recover twopc repl serve fuzz clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: static checks, a full build, and the test
# suite under the race detector.
verify:
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# bench runs the micro-benchmarks (experiment-scale benches run via
# `go test -bench=BenchmarkFigure7 -benchtime=1x` etc) — among them the
# per-layer rows BenchmarkEvaluateRow/{tpcc,tpce} and
# BenchmarkRouterNew/{tpcc,tpce} — then the
# parallel-search sweep: the full pipeline on TPC-C/SEATS and phases 2/3
# in isolation, each at 1/2/8 workers, then the commit path: one store
# commit, one WAL protocol step, one checkpoint encoding and digest fold,
# one end-of-run recover-and-check, a small TPC-C commit window
# through networked 2PC and through quorum replica groups, and one
# replica ship/ack round trip; last, trace generation at the jecbbench
# sizes.
bench:
	$(GO) test -bench='PathEval|Evaluate|GraphPartition|RouterNew|ValueHash|HDRObserve|TraceEvent' -benchmem -run=^$$ .
	$(GO) test -bench='BenchmarkPartition' -benchtime=1x -run=^$$ .
	$(GO) test -bench='Phase2|Phase3' -benchtime=1x -run=^$$ ./internal/core/
	$(GO) test -bench='EvaluateParallel' -benchmem -run=^$$ ./internal/eval/
	$(GO) test -bench='CommitOps|LogAppendTxn|EncodeSnapshot|TableDigest' -benchmem -run=^$$ ./internal/db/ ./internal/wal/
	$(GO) test -bench='GenerateTrace' -benchmem -benchtime=3x -run=^$$ ./internal/workloads/
	$(GO) test -bench='RecoverAndCheck|TwoPCWindow|ReplQuorumWindow|ShipAck' -benchmem -run=^$$ ./internal/cluster/ ./internal/twopc/ ./internal/repl/

# bench-export writes BENCH_obs.json, the machine-readable perf
# trajectory (ns/op, allocs/op, B/op per micro-benchmark),
# BENCH_drift.json, the drift-adaptation quality record (post-drift
# distributed fractions per controller, movement, swaps),
# BENCH_parallel.json, the parallel-search record (pipeline wall-clock at
# Parallelism 1 vs 8, the speedup ratio, the host CPU count, and the
# cross-worker-count solution byte-identity check), BENCH_serve.json,
# the overload-protection record (goodput and executed-tail p99/p999 at
# 1x and 2x offered load, admission on vs off), and BENCH_mem.json, the
# memory record (evaluator allocs/op on the indexed vs legacy path, and
# the 10M-tuple-access streaming run's peak RSS against the in-memory
# bound; BENCH_MEM_ACCESSES scales the big trace down for quick runs).
bench-export:
	BENCH_EXPORT=1 $(GO) test -run 'TestBenchExport|TestDriftExport|TestParallelBenchExport|TestServeExport|TestMemBenchExport' -timeout 30m -v .

# bigtrace demonstrates the streaming trace path end to end: generate a
# columnar trace file, then partition and evaluate it with cmd/jecb
# without ever materializing the full trace (training reads the leading
# -train fraction; evaluation and routing stream chunk-by-chunk).
bigtrace:
	$(GO) run ./cmd/tracegen -benchmark tpcc -scale 8 -txns 200000 -format columnar -out /tmp/jecb-big.col -db-out /tmp/jecb-big.snap
	$(GO) run ./cmd/jecb -benchmark tpcc -scale 8 -k 8 -train 0.02 -trace-in /tmp/jecb-big.col -db-in /tmp/jecb-big.snap

# experiments regenerates the paper's tables and figures at reduced
# scales, with the phase trace and a metrics artifact.
experiments:
	$(GO) run ./cmd/experiments -run all -quick -trace-report -metrics experiments_obs.json

# chaos runs the failure-degradation experiment (JECB vs Schism vs
# Horticulture under the builtin crash/loss scenarios) on the synthetic
# workload, plus one fault-injected pipeline run.
chaos:
	$(GO) run ./cmd/experiments -run chaos -quick
	$(GO) run ./cmd/jecb -benchmark synthetic -k 4 -txns 2000 -chaos -chaos-seed 1 -chaos-scenario rolling

# drift runs the workload-drift adaptation experiment (static vs
# adaptive vs oracle across the builtin drift scenarios) on the
# synthetic workload, plus one adaptive pipeline run.
drift:
	$(GO) run ./cmd/experiments -run drift -quick
	$(GO) run ./cmd/jecb -benchmark synthetic -k 4 -txns 2000 -drift mix-flip -drift-budget 1200 -drift-window 400

# recover runs the durability experiment (WAL-backed 2PC replay under
# every crash scenario, each ending in a full-cluster crash, recovery,
# and the consistency oracle), then exercises the standalone recovery
# path: a chaos run with a coordinator crash leaves its partition logs
# behind, and `jecb -recover` must replay them to the same digests.
recover:
	$(GO) run ./cmd/experiments -run durability -quick
	rm -rf /tmp/jecb-wal && $(GO) run ./cmd/jecb -benchmark synthetic -k 4 -txns 1500 \
		-chaos -chaos-seed 1 -chaos-scenario coord-crash -wal-dir /tmp/jecb-wal
	$(GO) run ./cmd/jecb -benchmark synthetic -recover -wal-dir /tmp/jecb-wal

# twopc runs the networked-2PC experiment table (transport-backed commit
# over the chaos bus with a standby coordinator), then checks the
# determinism contract end-to-end: two same-seed chaos-over-bus pipeline
# runs must write byte-identical flight-recorder dumps even though every
# frame crosses a real concurrent transport, and byte-identical WAL
# directories.
twopc:
	$(GO) run ./cmd/experiments -run twopc -quick
	rm -rf /tmp/jecb-twopc-a /tmp/jecb-twopc-b
	$(GO) run ./cmd/jecb -benchmark synthetic -k 4 -txns 1500 -chaos -chaos-seed 1 \
		-chaos-scenario coord-crash -wal-dir /tmp/jecb-twopc-a -transport bus -standby \
		-flight-dump /tmp/jecb-twopc-a/flight.json
	$(GO) run ./cmd/jecb -benchmark synthetic -k 4 -txns 1500 -chaos -chaos-seed 1 \
		-chaos-scenario coord-crash -wal-dir /tmp/jecb-twopc-b -transport bus -standby \
		-flight-dump /tmp/jecb-twopc-b/flight.json
	cmp /tmp/jecb-twopc-a/flight.json /tmp/jecb-twopc-b/flight.json
	diff -r /tmp/jecb-twopc-a /tmp/jecb-twopc-b

# repl runs the replication experiment table (replica groups under every
# crash scenario, async vs quorum commit rules — the quorum rows must
# lose zero acknowledged commits), then checks the determinism contract:
# two same-seed replicated pipeline runs with a primary crash and a
# promotion must write byte-identical flight-recorder dumps and WAL
# directories.
repl:
	$(GO) run ./cmd/experiments -run replication -quick
	rm -rf /tmp/jecb-repl-a /tmp/jecb-repl-b
	$(GO) run ./cmd/jecb -benchmark synthetic -k 4 -txns 1500 -chaos -chaos-seed 1 \
		-chaos-scenario single-crash -wal-dir /tmp/jecb-repl-a -replicate -commit-rule quorum \
		-flight-dump /tmp/jecb-repl-a/flight.json
	$(GO) run ./cmd/jecb -benchmark synthetic -k 4 -txns 1500 -chaos -chaos-seed 1 \
		-chaos-scenario single-crash -wal-dir /tmp/jecb-repl-b -replicate -commit-rule quorum \
		-flight-dump /tmp/jecb-repl-b/flight.json
	cmp /tmp/jecb-repl-a/flight.json /tmp/jecb-repl-b/flight.json
	diff -r /tmp/jecb-repl-a /tmp/jecb-repl-b

# serve runs the live-serving experiment table (scenario x offered load
# x admission on/off; the printer errors the run if overload protection
# fails its acceptance — protected 2x tail within 5x of the 1x baseline,
# goodput >= 80% of capacity, unprotected collapse), then checks the
# determinism contract: two same-seed serving pipeline runs under a
# flaky network must print byte-identical reports and JSON blocks, apart
# from the partitioner's wall/cpu timing line, which is dropped from
# both before the compare.
serve:
	$(GO) run ./cmd/experiments -run serve -quick
	$(GO) build -o /tmp/jecb-serve-bin ./cmd/jecb
	/tmp/jecb-serve-bin -benchmark synthetic -k 4 -txns 1500 -serve -serve-load 2 \
		-serve-duration 1 -chaos-scenario flaky-network > /tmp/jecb-serve-a.txt
	/tmp/jecb-serve-bin -benchmark synthetic -k 4 -txns 1500 -serve -serve-load 2 \
		-serve-duration 1 -chaos-scenario flaky-network > /tmp/jecb-serve-b.txt
	grep -v '^  partitioner: .* wall' /tmp/jecb-serve-a.txt > /tmp/jecb-serve-a.cmp
	grep -v '^  partitioner: .* wall' /tmp/jecb-serve-b.txt > /tmp/jecb-serve-b.cmp
	cmp /tmp/jecb-serve-a.cmp /tmp/jecb-serve-b.cmp

# fuzz gives each fuzz target a short exploration budget beyond the seed
# corpora that already run in the normal test pass.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=20s ./internal/sqlparse/
	$(GO) test -run='^$$' -fuzz=FuzzTraceRead -fuzztime=20s ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzColumnarRoundTrip -fuzztime=20s ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=20s ./internal/faults/
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=20s ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=20s ./internal/transport/

clean:
	rm -f BENCH_obs.json BENCH_drift.json BENCH_parallel.json BENCH_serve.json BENCH_mem.json experiments_obs.json
