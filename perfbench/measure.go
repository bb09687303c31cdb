package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
)

// cpuSeconds returns the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMetric is the heap the last GC cycle found live. Reading it never
// stops the world, unlike runtime.ReadMemStats.
const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapWatch tracks the highest live heap over a run. Instead of polling, it
// re-arms a finalizer on a sentinel object after every GC cycle, so it reads
// the live heap once per cycle and costs the run nothing between cycles.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// sentinel is big enough to stay out of the tiny allocator, whose blocks
// may never be finalized.
type sentinel struct{ _ [32]byte }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.sample()
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		w.sample()
		if !w.stopped.Load() {
			w.arm()
		}
	})
}

func (w *heapWatch) sample() {
	v := liveHeapBytes()
	for {
		cur := w.peak.Load()
		if v <= cur || w.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// stop ends the watch and returns the peak in bytes.
func (w *heapWatch) stop() uint64 {
	w.stopped.Store(true)
	w.sample()
	return w.peak.Load()
}

// heapDelta runs f between two full collections and returns how many bytes
// of live heap what f returns holds.
func heapDelta(f func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is not positive (a layer the workload
// never reached).
func ratio(a, b float64) float64 {
	if !(b > 0) {
		return 0
	}
	return a / b
}
