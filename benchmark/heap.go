package main

import (
	"runtime/metrics"
	"time"
)

// heapSampler reads the heap's size every 10ms while a run measures.
// host_mem_mb is the median sample: runtime.MemStats.Sys at exit is a
// high-water mark of whichever garbage-collection cycle happened to
// finish last, and on the churn workload read anywhere from 31 to 47
// MiB for the same work; the median of a few hundred samples across
// many cycles does not.
type heapSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		// Heap memory holding objects, live or not yet swept.
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		read := func() {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				read() // a run shorter than a tick still has a sample
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the median heap size in MiB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	return median(h.samples)
}
