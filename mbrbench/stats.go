package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile is the nearest-rank quantile of xs (q in [0,1]); xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(r, len(s)-1))]
}

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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// heapSampler records the high-water mark of live heap objects while it
// runs, sampling every two milliseconds.
type heapSampler struct {
	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
	peak     uint64
}

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: heapBytes()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if b := heapBytes(); b > h.peak {
					h.peak = b
				}
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak in MB. It may be called
// more than once.
func (h *heapSampler) stopMB() float64 {
	h.stopOnce.Do(func() { close(h.stop) })
	h.done.Wait()
	if b := heapBytes(); b > h.peak {
		h.peak = b
	}
	return float64(h.peak) / (1 << 20)
}

// runtimeWindow captures the Go runtime's cumulative allocation and CPU
// counters at the start of a timed phase.
type runtimeWindow struct {
	alloc          uint64
	gcCPU, totalCP float64
}

var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: cpuSamples[0]}, {Name: cpuSamples[1]}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func openRuntimeWindow() runtimeWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, total := readCPU()
	return runtimeWindow{alloc: ms.TotalAlloc, gcCPU: gc, totalCP: total}
}

// close returns the MB allocated and the GC share of CPU time since open.
// The runtime refreshes its CPU classes at each GC, so the share covers
// the GC cycles that completed inside the window.
func (w runtimeWindow) close() (allocMB, gcShare float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, total := readCPU()
	allocMB = float64(ms.TotalAlloc-w.alloc) / (1 << 20)
	if d := total - w.totalCP; d > 0 {
		gcShare = (gc - w.gcCPU) / d
	}
	return allocMB, gcShare
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }

// settle collects the garbage earlier steps left, so that every set-up and
// timed phase starts from the same heap state.
func settle() { runtime.GC() }
