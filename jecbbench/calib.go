package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration.
//
// On a shared VM the host's speed drifts by tens of percent within minutes
// and by up to 2.5× between sets of runs (contention for the shared cores,
// caches and memory, and CPU steal), and solve, set-up and commit times
// all drift with it. A run therefore also times a fixed reference
// computation next to every timed sample and reports each end-to-end time
// scaled by refNominal over the run's median reference time: seconds on a
// host that runs the reference in refNominal. The reference allocates
// nothing after its table is built and reads only that table, so no change
// to the program can move it: a faster program still lowers the scaled
// times, and only the host's drift cancels. The raw wall medians are
// logged next to them.
const refNominal = 0.040 // seconds

const (
	refTableLen = 1 << 19 // uint64s: 4 MiB, more than one core's L2
	refSteps    = 1 << 19 // dependent loads per P
)

// refTable is the reference's read-only table, filled once; refSink keeps
// the walks' results live.
var (
	refTable []uint64
	refSink  uint64
)

// reference walks refTable with dependent loads on every P at once, after
// a forced collection, and returns the wall seconds until all walks end.
func reference() float64 {
	if refTable == nil {
		refTable = make([]uint64, refTableLen)
		x := uint64(0x9e3779b97f4a7c15)
		for i := range refTable {
			x = xorshift(x)
			refTable[i] = x
		}
	}
	runtime.GC()
	ends := make([]uint64, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, idx := uint64(i)+1, uint64(i)
			for k := 0; k < refSteps; k++ {
				x = xorshift(x)
				idx = (refTable[idx] ^ x) & (refTableLen - 1)
			}
			ends[i] = idx
		}()
	}
	wg.Wait()
	s := time.Since(t0).Seconds()
	for _, v := range ends {
		refSink += v
	}
	return s
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
