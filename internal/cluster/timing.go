package cluster

import (
	"time"

	"repro/internal/faults"
)

// The retry policies and wire timings of the commit path. twopc and repl
// both run on them; sim's chaos and durable replays and serve share the
// transaction-level retry.
var (
	// TxnRetry shapes the transaction-level retry loop (virtual backoff):
	// the faults.RetryPolicy defaults.
	TxnRetry = faults.RetryPolicy{}.WithDefaults()
	// WireRetry shapes per-message retransmission: MaxAttempts caps
	// prepare broadcasts and ships (4× it bounds a must-deliver
	// message), BackoffAt paces resends. Its base and cap are 20 ms and
	// 200 ms, not the faults defaults, which are tuned for transaction
	// retries.
	WireRetry = faults.RetryPolicy{MaxAttempts: 6, BaseBackoffSec: 0.020, MaxBackoffSec: 0.200, JitterFrac: 0.2}
)

// ReplyWindow is how long attempt number attempt of a wire exchange
// waits for its reply: the policy's capped-exponential backoff, never
// less than base. The 2PC driver, the replica-group driver and the
// replica failure detector all pace their exchanges by it.
func ReplyWindow(p faults.RetryPolicy, base time.Duration, attempt int) time.Duration {
	return max(time.Duration(p.BackoffAt(attempt)*float64(time.Second)), base)
}

const (
	// ReplyWait is the per-attempt reply window of a vote, an ack or a
	// ship. It only matters when a frame was actually dropped or a peer
	// died: on a healthy exchange the reply arrives at once.
	ReplyWait = 25 * time.Millisecond
	// HeartbeatEvery and LeaseTimeout shape a leader lease: the 2PC
	// standby's and each replica group's failure detector's.
	HeartbeatEvery = 25 * time.Millisecond
	LeaseTimeout   = 150 * time.Millisecond
	// SpikeDelay is the real delivery delay of a chaos-spiked frame:
	// well inside the reply windows, so spikes add wire latency without
	// changing outcomes.
	SpikeDelay = 2 * time.Millisecond
)
