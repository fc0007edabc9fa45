# JECB reproduction — build, verification, and artifact targets.

GO ?= go

.PHONY: all build test verify bench bigtrace experiments chaos drift recover twopc repl serve fuzz clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: static checks, a full build, and the test
# suite under the race detector; then the same vet and tests for the
# jecbbench module, which the root ./... skips (it is a module of its
# own), so that an API change that breaks the benchmark fails here.
verify:
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) -C jecbbench vet ./...
	$(GO) -C jecbbench test ./...

# bench runs the root package's micro-benchmarks, then the router
# layer's two rows in internal/router, BenchmarkRouterNew/{tpcc,tpce}
# (building the router) and BenchmarkRoute/{tpcc,tpce} (routing every
# test transaction), then the parallel-search sweep: the full pipeline
# on TPC-C/SEATS and phases 2/3 in isolation on TPC-C/SEATS/TPC-E, each
# at 1/2/8 workers (100 iterations
# per row, 3 rows each: at one iteration the SEATS rows swung by ±20%
# between runs of one binary), then the evaluator layer
# (BenchmarkEvaluateRow/{tpcc,tpce}: eval.Evaluate of the test half;
# BenchmarkAssignerEvaluate: Assigner.Evaluate at 1/2/8 workers), then
# the commit path: placing a 3,000-txn TPC-C and TPC-E window ahead of
# its reader at 1 and GOMAXPROCS workers (BenchmarkPlaceTrace: time to
# the first chunk and to fully placed), one store commit, one join-path
# navigation inside one db.View from a key (BenchmarkNav: serial, and
# from GOMAXPROCS goroutines) and from a slot through the view's hop memo
# (cold and warm), one WAL
# protocol step, one checkpoint encoding and digest fold, one
# participant checkpoint cycle (64 commits, then the snapshot), one
# end-of-run recover-and-check, a small TPC-C commit window through
# networked 2PC and through quorum replica groups (both windows also
# report B/commit, the bytes allocated per committed transaction, which
# compares with jecbbench's 3,000-txn window), one 2PC round (a
# distributed NewOrder: prepare, vote, decide, ack over the bus), and one
# replica ship/ack round trip; last, trace generation at the jecbbench
# sizes. The paper's tables and figures are not benchmarks: `make
# experiments` regenerates them.
bench:
	$(GO) test -bench='Evaluate|GraphPartition|ValueHash|HDRObserve|TraceEvent' -benchmem -run=^$$ .
	$(GO) test -bench='RouterNew|Route$$' -benchmem -run=^$$ ./internal/router/
	$(GO) test -bench='Partition|Phase2|Phase3' -benchtime=100x -count=3 -run=^$$ ./internal/core/
	$(GO) test -bench='EvaluateRow|AssignerEvaluate|PlaceTrace' -benchmem -run=^$$ ./internal/eval/
	$(GO) test -bench='CommitOps|LogAppendTxn|EncodeSnapshot|TableDigest|CheckpointCadence|Nav' -benchmem -run=^$$ ./internal/db/ ./internal/wal/
	$(GO) test -bench='GenerateTrace' -benchmem -benchtime=3x -run=^$$ ./internal/workloads/
	$(GO) test -bench='RecoverAndCheck|TwoPCWindow|ReplQuorumWindow|TwoPCRound|ShipAck' -benchmem -run=^$$ ./internal/cluster/ ./internal/twopc/ ./internal/repl/

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
# behind, and `jecb -recover` must replay them to the same digests. A
# second same-seed run must write a byte-identical WAL directory.
recover:
	$(GO) run ./cmd/experiments -run durability -quick
	rm -rf /tmp/jecb-wal /tmp/jecb-wal-b
	$(GO) run ./cmd/jecb -benchmark synthetic -k 4 -txns 1500 \
		-chaos -chaos-seed 1 -chaos-scenario coord-crash -wal-dir /tmp/jecb-wal
	$(GO) run ./cmd/jecb -benchmark synthetic -k 4 -txns 1500 \
		-chaos -chaos-seed 1 -chaos-scenario coord-crash -wal-dir /tmp/jecb-wal-b
	diff -r /tmp/jecb-wal /tmp/jecb-wal-b
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
# protected 2x goodput >= 80% of the 1x cell's goodput, unprotected
# collapse), then checks the determinism contract: two same-seed serving
# pipeline runs under a flaky network must print byte-identical reports
# and JSON blocks.
serve:
	$(GO) run ./cmd/experiments -run serve -quick
	$(GO) build -o /tmp/jecb-serve-bin ./cmd/jecb
	/tmp/jecb-serve-bin -benchmark synthetic -k 4 -txns 1500 -serve -serve-load 2 \
		-serve-duration 1 -chaos-scenario flaky-network > /tmp/jecb-serve-a.txt
	/tmp/jecb-serve-bin -benchmark synthetic -k 4 -txns 1500 -serve -serve-load 2 \
		-serve-duration 1 -chaos-scenario flaky-network > /tmp/jecb-serve-b.txt
	cmp /tmp/jecb-serve-a.txt /tmp/jecb-serve-b.txt

# fuzz gives each fuzz target a short exploration budget beyond the seed
# corpora that already run in the normal test pass.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=20s ./internal/sqlparse/
	$(GO) test -run='^$$' -fuzz=FuzzTraceRead -fuzztime=20s ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzColumnarRoundTrip -fuzztime=20s ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=20s ./internal/faults/
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=20s ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=20s ./internal/transport/
	$(GO) test -run='^$$' -fuzz=FuzzCheckOp -fuzztime=20s ./internal/db/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=20s ./internal/db/
	$(GO) test -run='^$$' -fuzz=FuzzTwoPCPayload -fuzztime=20s ./internal/twopc/
	$(GO) test -run='^$$' -fuzz=FuzzReplAppend -fuzztime=20s ./internal/repl/
	$(GO) test -run='^$$' -fuzz=FuzzSolutionRoundTrip -fuzztime=20s ./internal/partition/

clean:
	rm -f experiments_obs.json
