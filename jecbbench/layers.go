package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/joingraph"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Repetitions of the traced probes; each probe metric is a median.
const (
	p1Reps      = 2      // core.Partition at Parallelism=1
	probeReps   = 5      // columnarize, index, WAL and joingraph probes
	codecFrames = 100000 // frames per transport codec pass
	busTrips    = 20000  // Send/Recv round trips on the bus
)

// tracedPair runs one untraced and one traced round; their round times
// give trace_overhead_pct.
func (r *runner) tracedPair(sm *samples) {
	r.tr.on = false
	t0 := time.Now()
	r.round()
	sm.plainS = append(sm.plainS, time.Since(t0).Seconds())

	r.tr.on = true
	t0 = time.Now()
	id := r.tr.start("round")
	rd := r.round()
	r.tr.end(id)
	sm.tracedS = append(sm.tracedS, time.Since(t0).Seconds())
	sm.rounds = append(sm.rounds, id)
	if rd.solve != nil {
		sm.routeNs = append(sm.routeNs, rd.solve.routeNs...)
		sm.local += rd.solve.local
		sm.routed += rd.solve.routed
	}
	if rd.twopc != nil && rd.quorum != nil {
		sm.last = rd
	}
}

// layerMetrics derives every per-layer metric from the recorded spans,
// after timing the layers the rounds do not reach directly on the last
// dataset, and writes the spans out.
func (r *runner) layerMetrics(sm *samples) (*result, error) {
	if sm.last.twopc == nil || sm.routed == 0 {
		return nil, fmt.Errorf("no traced round completed")
	}
	last2PC, lastRepl := sm.last.twopc, sm.last.quorum
	m := metrics{}
	med := func(name string) float64 { return r.tr.medianOf(name, spanSeconds) }
	medAllocs := func(name string) float64 { return r.tr.medianOf(name, spanMallocs) }

	// Set-up and the solve pipeline, from the set-up and round spans.
	m.put("workloads.load_s", "s", med("workloads.Load"))
	m.put("workloads.generate_s", "s", med("workloads.GenerateTrace"))
	m.put("workloads.txns", "count", float64(r.train.Len()+r.test.Len()))
	m.put("workloads.accesses", "count", float64(accesses(r.train)+accesses(r.test)))
	m.put("sqlparse.analyze_us", "us", 1e6*med("sqlparse.Analyze"))
	m.put("sqlparse.procedures", "count", float64(len(r.procs)))
	m.put("core.partition_s", "s", med("core.Partition"))
	m.put("core.partition_alloc_mb", "MB", r.tr.medianOf("core.Partition", func(s *span) float64 {
		return float64(s.AllocBytes) / (1 << 20)
	}))
	m.put("core.partition_allocs", "count", medAllocs("core.Partition"))
	m.put("core.classes_total", "count", float64(len(r.ref.rep.Classes)))
	m.put("core.candidate_attrs", "count", float64(len(r.ref.rep.CandidateAttributes)))
	m.put("core.combos_evaluated", "count", float64(r.ref.rep.CombosEvaluated))
	m.put("eval.evaluate_ms", "ms", 1e3*med("eval.Evaluate"))
	m.put("eval.evaluate_allocs", "count", medAllocs("eval.Evaluate"))
	m.put("router.new_ms", "ms", 1e3*med("router.New"))
	m.put("router.route_p50_us", "us", quantile(sm.routeNs, 0.50)/1e3)
	m.put("router.route_p99_us", "us", quantile(sm.routeNs, 0.99)/1e3)
	m.put("router.route_allocs", "count", medAllocs("router.Route")/float64(r.test.Len()))
	m.put("router.local_pct", "%", 100*float64(sm.local)/float64(sm.routed))

	// The commit path, from the round spans and the last window's results.
	m.put("twopc.run_s", "s", med("twopc.Run"))
	m.put("twopc.commit_us", "us", 1e6*med("twopc.Run")/float64(last2PC.Committed))
	m.put("twopc.distributed_pct", "%", 100*float64(last2PC.Distributed)/float64(last2PC.Offered))
	m.put("twopc.checkpoints", "count", float64(last2PC.Checkpoints))
	m.put("twopc.retries", "count", float64(last2PC.Retries))
	m.put("repl.run_s", "s", med("repl.Run"))
	m.put("repl.commit_us", "us", 1e6*med("repl.Run")/float64(lastRepl.Committed))
	m.put("repl.lost_commits", "count", float64(lastRepl.LostCommits))

	// The runtime, summed over each traced round's layer calls (the forced
	// collections between calls fall outside every layer span).
	var gcs, pauses, allocMB []float64
	for _, id := range sm.rounds {
		var g, p, a float64
		for _, s := range r.tr.spans {
			if s.Parent == id {
				g += float64(s.GCCycles)
				p += float64(s.GCPauseNs) / 1e6
				a += float64(s.AllocBytes) / (1 << 20)
			}
		}
		gcs, pauses, allocMB = append(gcs, g), append(pauses, p), append(allocMB, a)
	}
	m.put("runtime.gc_cycles", "count", median(gcs))
	m.put("runtime.gc_pause_ms", "ms", median(pauses))
	m.put("runtime.alloc_mb", "MB", median(allocMB))
	m.put("trace_overhead_pct", "%", 100*(median(sm.tracedS)/median(sm.plainS)-1))
	m.put("host.reference_ms", "ms", 1e3*median(r.refS))

	if err := r.probes(m); err != nil {
		return nil, err
	}
	if err := r.tr.finish(r.cfg.spansOut); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(r.cfg.log, "  %d traced rounds, %d spans written to %s\n", len(sm.rounds), len(r.tr.spans), r.cfg.spansOut)
	return r.result(m), nil
}

// probes times, on the last dataset, the layers below the rounds' calls —
// the worker pool, the join graph, the columnar trace, the place index,
// the WAL and the frame codec — through their public entry points.
func (r *runner) probes(m metrics) error {
	med := func(name string) float64 { return r.tr.medianOf(name, spanSeconds) }

	// The worker pool: the same search on one worker must return the same
	// solution (the determinism contract); the time ratio is the speedup.
	for i := 0; i < p1Reps; i++ {
		var sol *partition.Solution
		var err error
		r.timed("core.Partition/p1", func() { sol, _, err = r.partition(1) })
		if err == nil {
			err = r.sameAsReference(sol)
		}
		r.check("Parallelism=1 partition", err)
	}
	m.put("core.partition_p1_s", "s", med("core.Partition/p1"))
	m.put("core.parallel_speedup", "x", med("core.Partition/p1")/med("core.Partition"))

	analyses, err := r.analyze()
	if err != nil {
		return err
	}
	for i := 0; i < probeReps; i++ {
		r.timed("joingraph.Build", func() {
			for _, a := range analyses {
				joingraph.Build(a, r.d.Schema(), r.ref.rep.Replicated)
			}
		})
	}
	m.put("joingraph.build_us", "us", 1e6*med("joingraph.Build"))

	var col *trace.Columnar
	for i := 0; i < probeReps; i++ {
		r.timed("trace.Columnarize", func() { col = trace.Columnarize(r.test) })
	}
	m.put("trace.columnarize_ms", "ms", 1e3*med("trace.Columnarize"))
	for i := 0; i < probeReps; i++ {
		r.timed("eval.Index", func() {
			var a *eval.Assigner
			if a, err = eval.NewAssigner(r.d, r.ref.sol); err == nil {
				a.Index(col)
			}
		})
		if err != nil {
			return fmt.Errorf("eval.NewAssigner: %w", err)
		}
	}
	m.put("eval.index_ms", "ms", 1e3*med("eval.Index"))

	if err := r.walProbes(m); err != nil {
		return err
	}
	if err := r.codecProbes(m); err != nil {
		return err
	}
	rtt, err := r.busRTT()
	if err != nil {
		return fmt.Errorf("transport bus: %w", err)
	}
	m.put("transport.bus_rtt_us", "us", rtt)
	return nil
}

// walProbes recovers, parses and re-appends the logs the last 2PC window
// left behind.
func (r *runner) walProbes(m metrics) error {
	dir := filepath.Join(r.walDir, "2pc")
	var err error
	for i := 0; i < probeReps; i++ {
		r.timed("wal.RecoverDir", func() { _, err = wal.RecoverDir(r.d.Schema(), dir) })
		if err != nil {
			return fmt.Errorf("wal.RecoverDir: %w", err)
		}
	}
	m.put("wal.recover_ms", "ms", 1e3*r.tr.medianOf("wal.RecoverDir", spanSeconds))

	var recs []wal.Record
	var logBytes int64
	for i := 0; i < probeReps; i++ {
		recs, logBytes = recs[:0], 0
		r.timed("wal.ParseFile", func() {
			for p := 0; p < partitions && err == nil; p++ {
				var got []wal.Record
				var n int64
				got, n, err = wal.ParseFile(wal.PartitionLogPath(dir, p))
				recs, logBytes = append(recs, got...), logBytes+n
			}
		})
		if err != nil {
			return fmt.Errorf("wal.ParseFile: %w", err)
		}
	}
	if len(recs) == 0 {
		return fmt.Errorf("wal: the 2PC window left no records")
	}
	m.put("wal.parse_mb_s", "MB/s", float64(logBytes)/(1<<20)/r.tr.medianOf("wal.ParseFile", spanSeconds))

	path := filepath.Join(r.walDir, "append", "probe.log")
	for i := 0; i < probeReps; i++ {
		r.timed("wal.Append", func() {
			var l *wal.Log
			if l, err = wal.Create(path); err != nil {
				return
			}
			for _, rec := range recs {
				if err = l.Append(rec.Type, rec.Txn, rec.Payload); err != nil {
					break
				}
			}
			if cerr := l.Close(); err == nil {
				err = cerr
			}
		})
		if err != nil {
			return fmt.Errorf("wal.Append: %w", err)
		}
	}
	m.put("wal.append_ns", "ns", 1e9*r.tr.medianOf("wal.Append", spanSeconds)/float64(len(recs)))
	return nil
}

// codecProbes encodes and decodes prepare-sized frames.
func (r *runner) codecProbes(m metrics) error {
	msg := transport.Msg{Type: 1, From: partitions, To: 3, Payload: make([]byte, 64)}
	var frames []byte
	var err error
	for i := 0; i < probeReps; i++ {
		frames = frames[:0]
		r.timed("transport.AppendFrame", func() {
			for j := 0; j < codecFrames && err == nil; j++ {
				msg.Txn = uint64(j)
				frames, err = transport.AppendFrame(frames, msg)
			}
		})
		if err != nil {
			return fmt.Errorf("transport.AppendFrame: %w", err)
		}
		r.timed("transport.DecodeFrame", func() {
			for off, j := 0, 0; off < len(frames) && err == nil; j++ {
				var got transport.Msg
				var n int
				if got, n, err = transport.DecodeFrame(frames[off:]); err == nil && got.Txn != uint64(j) {
					err = fmt.Errorf("frame %d decoded as txn %d", j, got.Txn)
				}
				off += n
			}
		})
		if err != nil {
			return fmt.Errorf("transport.DecodeFrame: %w", err)
		}
	}
	m.put("transport.encode_ns", "ns", 1e9*r.tr.medianOf("transport.AppendFrame", spanSeconds)/codecFrames)
	m.put("transport.decode_ns", "ns", 1e9*r.tr.medianOf("transport.DecodeFrame", spanSeconds)/codecFrames)
	return nil
}

// busRTT bounces a message between two bus endpoints and returns the
// median round trip in microseconds. The echo goroutine ends when its
// context is done, and busRTT waits for it.
func (r *runner) busRTT() (float64, error) {
	bus := transport.NewBus()
	a, err := bus.Endpoint(0)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := bus.Endpoint(1)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	// A bus only drops frames to a down node or a full inbox, neither of
	// which happens here; the timeout turns a lost frame into an error.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, err := b.Recv(ctx)
			if err != nil {
				return
			}
			m.From, m.To = 1, 0
			if b.Send(ctx, m) != nil {
				return
			}
		}
	}()
	defer wg.Wait()
	defer cancel()

	msg := transport.Msg{Type: 1, From: 0, To: 1, Payload: make([]byte, 64)}
	rtts := make([]float64, 0, busTrips)
	runtime.GC()
	id := r.tr.start("transport.Bus")
	defer r.tr.end(id)
	for i := 0; i < busTrips; i++ {
		msg.Txn = uint64(i)
		t0 := time.Now()
		if err := a.Send(ctx, msg); err != nil {
			return 0, err
		}
		got, err := a.Recv(ctx)
		if err != nil {
			return 0, err
		}
		if got.Txn != msg.Txn {
			return 0, fmt.Errorf("round trip %d returned txn %d", i, got.Txn)
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(rtts), nil
}

func accesses(tr *trace.Trace) int {
	n := 0
	for _, t := range tr.All() {
		n += len(t.Accesses)
	}
	return n
}
