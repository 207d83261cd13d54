package trace

import "sync"

// Sink receives flushed event batches. The batch slice is reused by
// the recorder after the call returns, so a sink that retains events
// must copy them (Collector does).
type Sink interface {
	Batch(events []Event)
}

// Recorder buffers events into a preallocated ring and hands full
// batches to its sink. A nil *Recorder is the disabled state: every
// emit method is nil-receiver-safe and returns immediately, so the
// walk hot path pays one pointer test and zero allocations when
// tracing is off (TestWalkAllocationFree in alloc_test.go pins 0
// allocs/walk).
//
// A Recorder is safe for concurrent emitters (the parallel sweep's
// workers may share one), but interleaving is then scheduling-
// dependent; deterministic traces use one recorder per simulation and
// serialize the batches afterwards.
type Recorder struct {
	mu   sync.Mutex
	sink Sink
	buf  []Event
	seq  uint64
}

// DefaultBufferEvents is the ring capacity used when NewRecorder is
// given a non-positive size: large enough to amortize sink calls,
// small enough to stay cache-friendly.
const DefaultBufferEvents = 4096

// NewRecorder returns an enabled recorder flushing to sink every
// bufEvents events (DefaultBufferEvents if bufEvents <= 0).
func NewRecorder(sink Sink, bufEvents int) *Recorder {
	if bufEvents <= 0 {
		bufEvents = DefaultBufferEvents
	}
	return &Recorder{sink: sink, buf: make([]Event, 0, bufEvents)}
}

// Enabled reports whether the recorder accepts events.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit records one event, assigning its sequence number. The caller
// fills every field except Seq. Nil-safe.
//
//nestedlint:hotpath
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev.Seq = r.seq
	r.seq++
	r.buf = append(r.buf, ev)
	if len(r.buf) == cap(r.buf) {
		r.sink.Batch(r.buf)
		r.buf = r.buf[:0]
	}
	r.mu.Unlock()
}

// Flush drains the buffered events to the sink. Call it when the
// traced run completes; the recorder remains usable. Nil-safe.
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) > 0 {
		r.sink.Batch(r.buf)
		r.buf = r.buf[:0]
	}
	r.mu.Unlock()
}

// Events returns the number of events emitted so far. Nil-safe.
func (r *Recorder) Events() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Collector is a Sink that retains every event in memory, for tests,
// auditing, and deferred deterministic serialization.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Batch implements Sink by copying the batch.
//
//nestedlint:hotpath
func (c *Collector) Batch(events []Event) {
	c.mu.Lock()
	c.events = append(c.events, events...)
	c.mu.Unlock()
}

// Events returns the collected events. The returned slice is the
// collector's own storage; callers must not mutate it while the
// recorder is still live.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// Reset discards the collected events.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = c.events[:0]
	c.mu.Unlock()
}

// NewCollected returns an enabled recorder wired to a fresh collector
// — the common test/audit setup in one call.
func NewCollected() (*Recorder, *Collector) {
	c := &Collector{}
	return NewRecorder(c, 0), c
}
