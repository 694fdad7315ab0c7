package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox is a 2-vCPU guest on a shared host whose speed moves under the
// benchmark: at one seed and one commit, every latency rose and fell together
// by 30-50 % over minutes (log-sd 8-13 % over 70 runs), which no statistic
// taken inside a run can remove. So each gated timing is reported in
// reference milliseconds: the wall time divided by how much slower than
// nominal a fixed piece of the harness's own work ran during the same
// interval. That cut the run-to-run log-sd to 2.5-5 % on the same 70 runs.
// The work is stdlib-only and shares no code with the program under test, so
// a change to the program cannot move it.

// refNominalMs is the cost of refWork on this sandbox at the median of the
// baseline runs, so a reference millisecond is a wall millisecond on a
// typical run. Changing it rescales every gated timing.
const refNominalMs = 1.62

// refTableLen is the memory half's working set in float64s: 2 MB, so it
// lives in the cache levels the guest shares with its neighbours, where the
// slow-downs come from.
const refTableLen = 256 << 10

// refWork is the reference: random read-modify-writes over the table, then
// transcendental arithmetic, map updates and small allocations. The server's
// latencies followed the sum of a memory-bound and a compute-bound part
// weighted about 1:2.5 better than either alone; the iteration counts below
// give that weighting (~0.55 ms and ~1.05 ms at nominal speed). The return
// value keeps the compiler from discarding the work.
func refWork(table []float64) float64 {
	x := uint64(88172645463325252)
	sum := 0.0
	for i := 0; i < 40_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(len(table))
		table[j] = table[j]*0.5 + float64(i&7)
		sum += table[j]
	}
	y := 0.5
	for i := 0; i < 20_000; i++ {
		y = math.Exp(-y*y) + math.Sqrt(y+float64(i&15))*0.1
	}
	m := make(map[int]int, 64)
	for i := 0; i < 3000; i++ {
		m[(i*7919)&1023] += i
	}
	var keep [][]float64
	for i := 0; i < 300; i++ {
		keep = append(keep, make([]float64, 32))
	}
	return sum + y + float64(len(m)+len(keep))
}

// threadCPU is the calling thread's consumed CPU time. Timing refWork with it
// leaves out the time the thread stood preempted by the server or the load
// connections, which is the program's doing and not the host's.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// interval is a stretch of a run's wall clock.
type interval struct{ from, to time.Time }

// hostRef samples refWork ten times a second, ~1.6 % of one core, on a
// thread of its own for as long as a run lasts.
type hostRef struct {
	halted sync.Once
	stop   chan struct{}
	done   chan struct{}
	at     []time.Time
	ms     []float64
	sink   float64
}

func startHostRef() *hostRef {
	h := &hostRef{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		runtime.LockOSThread() // threadCPU must read the thread refWork ran on
		defer runtime.UnlockOSThread()
		table := make([]float64, refTableLen)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c0 := threadCPU()
				h.sink += refWork(table)
				h.ms = append(h.ms, float64(threadCPU()-c0)/float64(time.Millisecond))
				h.at = append(h.at, time.Now())
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// halt ends the sampling; the samples may be read once it returns. It may be
// called again.
func (h *hostRef) halt() {
	h.halted.Do(func() { close(h.stop) })
	<-h.done
}

// slowdown is the median cost of the samples taken inside the given spans
// over the nominal cost: 1.2 means the host ran 20 % slower than nominal
// while they lasted. Spans too short to hold a sample fall back to the whole
// run.
func (h *hostRef) slowdown(spans ...interval) float64 {
	var in []float64
	for i, t := range h.at {
		for _, s := range spans {
			if !t.Before(s.from) && !t.After(s.to) {
				in = append(in, h.ms[i])
				break
			}
		}
	}
	if len(in) == 0 {
		in = h.ms
	}
	if len(in) == 0 {
		return 1
	}
	return median(in) / refNominalMs
}
