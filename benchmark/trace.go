package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
)

// A span is one interval at a layer boundary, recorded from this
// directory's files around public calls into the layer. Calls is how
// many calls the span covers: sub-microsecond calls are never given a
// span each (one clock read costs a fifth of a hot walk), they are
// summed into one span per chunk whose length is their total busy time
// as the clock read it. The file's header carries what the clock itself
// costs, for whoever subtracts it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   uint64 `json:"calls"`
	// SelfNs is the span's duration minus the part its children cover;
	// filled in when the spans are written.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	// readNs is the cost of one clock read in a loop of nothing else and
	// emptyNs the length an empty span reads as there. Inside real code
	// a read overlaps its surroundings and costs about half as much, so
	// nothing is corrected by these: they are reported, and the shadow
	// pipeline estimates its own clock cost from its untimed chunks.
	readNs  float64
	emptyNs float64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.readNs, t.emptyNs = calibrateTimer()
	return t
}

// calibrateTimer measures the clock itself: the cost of one read (a
// start/stop pair is two) and what an empty span reads as.
func calibrateTimer() (readNs, emptyNs float64) {
	const n = 1 << 14
	pair := make([]float64, 0, 9)
	empty := make([]float64, 0, 9)
	for rep := 0; rep < 9; rep++ {
		var inside time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			inside += time.Since(s)
		}
		total := time.Since(start)
		pair = append(pair, float64(total.Nanoseconds())/n)
		empty = append(empty, float64(inside.Nanoseconds())/n)
	}
	return median(pair) / 2, median(empty)
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; end closes it.
func (t *tracer) begin(parent int, layer, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, StartNs: t.now(), Calls: 1})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNs = t.now() }

// add records a summed span: calls calls that were busy for busyNs in
// total, starting no earlier than startNs.
func (t *tracer) add(parent int, layer, name string, startNs int64, busyNs float64, calls uint64) int {
	if busyNs < 0 {
		busyNs = 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name,
		StartNs: startNs, EndNs: startNs + int64(busyNs), Calls: calls})
	return len(t.spans)
}

// write derives every span's self time and stores the spans as one
// JSON document.
func (t *tracer) write(path string) error {
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNs = s.EndNs - s.StartNs
	}
	for _, c := range t.spans {
		if c.Parent != 0 {
			t.spans[c.Parent-1].SelfNs -= c.EndNs - c.StartNs
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		TimerReadNs float64 `json:"timer_read_ns"`
		EmptySpanNs float64 `json:"empty_span_ns"`
		Spans       []span  `json:"spans"`
	}{t.readNs, t.emptyNs, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedMem is the memory hierarchy with a clock pair around each call:
// handed to a walker in place of *cachesim.Hierarchy, it sees the
// walker's memory traffic from outside both packages. While recording
// it keeps the calls' arguments instead, for a batch-timed replay.
type timedMem struct {
	h     *cachesim.Hierarchy
	busy  time.Duration
	calls uint64

	recording bool
	rec       []memCall
	recPAs    []addr.HPA
}

// memCall is one recorded call; a single Access is a group of one.
type memCall struct {
	now    uint64
	lo, hi int // recPAs[lo:hi]
}

func (m *timedMem) record(now uint64, pas ...addr.HPA) {
	lo := len(m.recPAs)
	m.recPAs = append(m.recPAs, pas...)
	m.rec = append(m.rec, memCall{now: now, lo: lo, hi: len(m.recPAs)})
}

func (m *timedMem) Access(now uint64, pa addr.HPA, src cachesim.Source) (uint64, cachesim.ServiceLevel) {
	if m.recording {
		m.record(now, pa)
		return m.h.Access(now, pa, src)
	}
	s := time.Now()
	lat, served := m.h.Access(now, pa, src)
	m.busy += time.Since(s)
	m.calls++
	return lat, served
}

func (m *timedMem) AccessParallel(now uint64, pas []addr.HPA, src cachesim.Source) uint64 {
	if m.recording {
		m.record(now, pas...)
		return m.h.AccessParallel(now, pas, src)
	}
	s := time.Now()
	lat := m.h.AccessParallel(now, pas, src)
	m.busy += time.Since(s)
	m.calls++
	return lat
}

func (m *timedMem) reset() { m.busy, m.calls = 0, 0 }
