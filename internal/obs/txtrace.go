package obs

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Transaction-level tracing: a deterministic per-transaction trace id,
// a fixed-vocabulary event stream, and a fixed-capacity sharded
// ring-buffer "flight recorder" holding the most recent events. The
// simulation layers emit one event per causal step — arrival, routing
// decision, fault injection, retry backoff, 2PC prepare/commit/abort,
// WAL append, scripted crash — so a consistency-oracle failure or a
// chaos post-mortem can reconstruct exactly which transaction took
// which path through router → 2PC → WAL.
//
// The disabled path is free: every Recorder method no-ops on a nil
// receiver (mirroring spans), and Record on a live recorder is
// allocation-free (the obs benchmarks pin both).
//
// Determinism contract: trace ids derive from (seed, arrival index)
// only, events carry virtual time, and DumpJSON orders events by their
// global sequence number — so a single-threaded replay (every sim mode)
// dumps byte-identical JSON for the same seed.

// TxnID derives the deterministic 64-bit trace id of the index-th
// transaction of a run seeded with seed (a splitmix64 finalizer over
// the pair, so ids are well-distributed across recorder shards and
// collision-free in practice within a run).
func TxnID(seed int64, index int) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(index) + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// EventKind is the fixed vocabulary of trace events. The zero value is
// invalid so an unwritten ring slot never decodes as a real event.
type EventKind uint8

// The event kinds.
const (
	// EvBegin marks a transaction's arrival; Arg is its pinned
	// participant count (0 for a fully-replicated read).
	EvBegin EventKind = iota + 1
	// EvRoute records a routing decision; Node is the coordinator (or
	// the first target partition), Arg packs fanout<<8 | mode.
	EvRoute
	// EvRouteDenied records a routing failure (partition down); Arg is
	// the RouteErr* code.
	EvRouteDenied
	// EvFault marks an injected fault blocking an attempt; Node is the
	// unreachable node (or the coordinator for a message loss) and Arg
	// is the Fault* code.
	EvFault
	// EvBackoff marks a retry wait; Arg is the backoff in nanoseconds.
	EvBackoff
	// EvPrepare marks a durable 2PC PREPARE on Node.
	EvPrepare
	// EvCommit marks a commit (the coordinator's durable decision, or
	// the analytic replay's commit); Arg is the transaction's latency in
	// nanoseconds of virtual time.
	EvCommit
	// EvAbort marks an aborted attempt.
	EvAbort
	// EvGiveUp marks retry-budget exhaustion: the transaction failed
	// permanently.
	EvGiveUp
	// EvWALAppend marks one write-ahead-log append on partition Node;
	// Arg packs frameBytes<<8 | recordType.
	EvWALAppend
	// EvCheckpoint marks a checkpoint written on partition Node.
	EvCheckpoint
	// EvCrash marks a scripted crash point firing on Node; Arg is the
	// crash phase code.
	EvCrash
	// EvRecover marks crash recovery of partition Node; Arg is the
	// number of replayed commits.
	EvRecover
	// EvShip marks a WAL-shipping batch sent to replica member Node;
	// Arg packs recordCount<<16 | baseSeq&0xffff.
	EvShip
	// EvReplAck marks a durable replication ack from replica member
	// Node; Arg is the acknowledged log sequence.
	EvReplAck
	// EvPromote marks a replica-group promotion: Node is the promoted
	// member, Arg packs watermark<<8 | partition.
	EvPromote
	// EvCatchup marks an anti-entropy catch-up of replica member Node;
	// Arg is the number of records (or, for a snapshot install, the
	// negated base sequence).
	EvCatchup
	// EvShed marks an admission-control shed: the serving layer refused
	// the request before execution; Arg is the Shed* reason code.
	EvShed
	// EvBreaker marks a circuit-breaker state transition on partition
	// Node; Arg is the new Breaker* state code.
	EvBreaker
)

// String names the kind for dumps.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvRoute:
		return "route"
	case EvRouteDenied:
		return "route-denied"
	case EvFault:
		return "fault"
	case EvBackoff:
		return "backoff"
	case EvPrepare:
		return "prepare"
	case EvCommit:
		return "commit"
	case EvAbort:
		return "abort"
	case EvGiveUp:
		return "give-up"
	case EvWALAppend:
		return "wal-append"
	case EvCheckpoint:
		return "checkpoint"
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvShip:
		return "ship"
	case EvReplAck:
		return "repl-ack"
	case EvPromote:
		return "promote"
	case EvCatchup:
		return "catchup"
	case EvShed:
		return "shed"
	case EvBreaker:
		return "breaker"
	default:
		return fmt.Sprintf("ev(%d)", uint8(k))
	}
}

// Arg codes for EvFault, EvRouteDenied, EvShed, and EvBreaker.
const (
	FaultNodeDown     int64 = 1 // a participant was unreachable
	FaultMsgLoss      int64 = 2 // a coordination message was lost
	FaultInDoubtBlock int64 = 3 // a partition held an in-doubt txn
	RouteErrDown      int64 = 1 // router.ErrPartitionDown (2 and 3 are retired)
	ShedToken         int64 = 1 // token bucket empty
	ShedQueue         int64 = 2 // worker queue at depth cap
	BreakerClosed     int64 = 0 // breaker re-closed (healthy)
	BreakerOpen       int64 = 1 // breaker tripped open
	BreakerHalfOpen   int64 = 2 // breaker probing
)

// Event is one flight-recorder entry: fixed-size plain data so the ring
// buffer never allocates.
type Event struct {
	// Seq is the recorder-global emission order (1-based).
	Seq uint64
	// Txn is the transaction trace id (TxnID), 0 for run-level events.
	Txn uint64
	// Kind is the event kind.
	Kind EventKind
	// Node is the partition/node the event concerns, -1 when global.
	Node int16
	// Attempt is the 1-based attempt number, 0 when not attempt-scoped.
	Attempt int16
	// VT is the event's virtual time in seconds.
	VT float64
	// Arg is kind-specific (see the EventKind docs).
	Arg int64
}

// recorderShards fixes the shard count (power of two; shard = Txn mod
// recorderShards, deterministic for deterministic ids).
const recorderShards = 8

type recShard struct {
	mu     sync.Mutex
	buf    []Event
	writes uint64 // total events ever written to this shard
}

// Recorder is the flight recorder: a sharded ring buffer of the most
// recent trace events. All methods are safe for concurrent use and
// no-ops on a nil receiver.
type Recorder struct {
	seq    atomic.Uint64
	shards [recorderShards]recShard
}

// cTraceEvents counts events accepted by any recorder (Default
// registry; handle cached so the hot path never takes the name lock).
var cTraceEvents = Default.Counter("obs.trace_events")

// NewRecorder creates a recorder holding at most capacity events
// (rounded up to a multiple of the shard count; capacity <= 0 selects
// the default 65536). Once a shard's ring is full the oldest events are
// overwritten — the flight-recorder semantics: the dump always holds
// the most recent history.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 65536
	}
	per := (capacity + recorderShards - 1) / recorderShards
	r := &Recorder{}
	for i := range r.shards {
		r.shards[i].buf = make([]Event, per)
	}
	return r
}

// Record appends one event. Nil-receiver and zero cost when tracing is
// off; allocation-free when on.
func (r *Recorder) Record(txn uint64, kind EventKind, node, attempt int, vt float64, arg int64) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	s := &r.shards[txn%recorderShards]
	s.mu.Lock()
	s.buf[int(s.writes%uint64(len(s.buf)))] = Event{
		Seq: seq, Txn: txn, Kind: kind,
		Node: int16(node), Attempt: int16(attempt), VT: vt, Arg: arg,
	}
	s.writes++
	s.mu.Unlock()
	cTraceEvents.Inc()
}

// Dropped returns how many events the rings have overwritten.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var dropped uint64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if s.writes > uint64(len(s.buf)) {
			dropped += s.writes - uint64(len(s.buf))
		}
		s.mu.Unlock()
	}
	return int64(dropped)
}

// Events returns the retained events sorted by sequence number.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n := s.writes
		capU := uint64(len(s.buf))
		if n > capU {
			n = capU
		}
		start := s.writes - n
		for j := uint64(0); j < n; j++ {
			out = append(out, s.buf[(start+j)%capU])
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// DumpJSON writes the retained events as a JSON array, one event per
// line, ordered by sequence number. Field order, number formatting and
// the hex txn ids are all fixed, so a deterministic replay dumps
// byte-identical output for the same seed — the property the CI
// tracing job diffs.
func (r *Recorder) DumpJSON(w io.Writer) error {
	events := r.Events()
	bw := &errWriter{w: w}
	bw.writeString("[\n")
	for i, e := range events {
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		bw.writeString(fmt.Sprintf(
			`  {"seq":%d,"txn":"%016x","kind":%q,"node":%d,"attempt":%d,"vt":%s,"arg":%d}%s`+"\n",
			e.Seq, e.Txn, e.Kind.String(), e.Node, e.Attempt,
			strconv.FormatFloat(e.VT, 'g', -1, 64), e.Arg, sep))
	}
	bw.writeString("]\n")
	return bw.err
}

// DumpFile writes DumpJSON to path (0644).
func (r *Recorder) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.DumpJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- context threading ----------------------------------------------------

type recorderCtxKey struct{}

// WithRecorder returns a context carrying the recorder; pipeline stages
// read it back with ContextRecorder. A nil recorder is fine (tracing
// stays off).
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderCtxKey{}, r)
}

// ContextRecorder returns the context's recorder, nil when absent.
func ContextRecorder(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderCtxKey{}).(*Recorder)
	return r
}
