// Package stats provides the measurement primitives the evaluation
// uses: hit/miss counters, latency histograms (Figure 11), interval
// time series (Figure 12), and geometric means (Figure 9).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter tracks a hit/miss ratio.
type Counter struct {
	Hits   uint64
	Misses uint64
}

// Hit records a hit.
//
//nestedlint:hotpath
func (c *Counter) Hit() { c.Hits++ }

// Miss records a miss.
//
//nestedlint:hotpath
func (c *Counter) Miss() { c.Misses++ }

// Record records either a hit or a miss.
//
//nestedlint:hotpath
func (c *Counter) Record(hit bool) {
	if hit {
		c.Hits++
	} else {
		c.Misses++
	}
}

// Total returns the number of recorded events.
//
//nestedlint:hotpath
func (c *Counter) Total() uint64 { return c.Hits + c.Misses }

// HitRate returns the fraction of hits, or 0 when nothing was recorded.
//
//nestedlint:hotpath
func (c *Counter) HitRate() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// Add accumulates another counter into c.
func (c *Counter) Add(o Counter) {
	c.Hits += o.Hits
	c.Misses += o.Misses
}

// Reset zeroes the counter.
//
//nestedlint:hotpath
func (c *Counter) Reset() { *c = Counter{} }

// String renders the counter as "hits/total (rate)".
func (c *Counter) String() string {
	return fmt.Sprintf("%d/%d (%.2f%%)", c.Hits, c.Total(), 100*c.HitRate())
}

// Histogram is a fixed-bin-width latency histogram, used for the
// page-walk latency distribution of Figure 11.
type Histogram struct {
	BinWidth uint64
	bins     []uint64
	count    uint64
	sum      uint64
	max      uint64
}

// NewHistogram creates a histogram with the given bin width (cycles).
func NewHistogram(binWidth uint64) *Histogram {
	if binWidth == 0 {
		panic("stats: zero histogram bin width")
	}
	return &Histogram{BinWidth: binWidth}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	idx := int(v / h.BinWidth)
	for idx >= len(h.bins) {
		h.bins = append(h.bins, 0)
	}
	h.bins[idx]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Merge accumulates another histogram's samples into h. The bin widths
// must match: merging is how per-worker latency histograms combine into
// one distribution (internal/serve), and mixed widths would silently
// smear percentiles.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if o.BinWidth != h.BinWidth {
		panic(fmt.Sprintf("stats: merging histograms with bin widths %d and %d", h.BinWidth, o.BinWidth))
	}
	for len(h.bins) < len(o.bins) {
		h.bins = append(h.bins, 0)
	}
	for i, n := range o.bins {
		h.bins[i] += n
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample.
func (h *Histogram) Max() uint64 { return h.max }

// Bin returns the midpoint and probability mass of bin i.
func (h *Histogram) Bin(i int) (mid float64, p float64) {
	mid = (float64(i) + 0.5) * float64(h.BinWidth)
	if h.count == 0 || i >= len(h.bins) {
		return mid, 0
	}
	return mid, float64(h.bins[i]) / float64(h.count)
}

// NumBins returns the number of occupied bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// Percentile returns the p-quantile (p in [0,1]) using bin upper edges,
// e.g. Percentile(0.95) for the paper's 95th-percentile tail latency.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.bins {
		cum += n
		if cum >= target {
			return uint64(i+1) * h.BinWidth
		}
	}
	return h.max
}

// Series is an interval time series: Figure 12 samples hCWC hit rates
// every 5M cycles. Each point is the value measured in one interval.
type Series struct {
	Points []float64
}

// Append adds one interval sample.
//
//nestedlint:hotpath
func (s *Series) Append(v float64) { s.Points = append(s.Points, v) }

// Mean returns the average of all points, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Points {
		sum += v
	}
	return sum / float64(len(s.Points))
}

// Geomean returns the geometric mean of xs. Non-positive entries are
// skipped; an empty input yields 0.
func Geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// distHotSlots is how many distinct categories a Distribution counts
// inline before spilling to a map. Four covers the walk-class
// vocabulary (Direct / Size / Partial / Complete), so the per-walk
// Observe calls on the translation hot path never touch a map.
const distHotSlots = 4

// Distribution accumulates named-category counts, used for the walk
// breakdown of Figure 14 (Direct / Size / Partial / Complete).
//
// The first distHotSlots distinct category names live in fixed inline
// slots; later ones spill to a lazily-created map. Observe is called
// several times per page walk with a tiny, stable vocabulary, so the
// inline scan (which compares interned name pointers before bytes)
// replaces a string-keyed map assignment on the hot path. The slot
// layout is a deterministic function of the observation sequence:
// two Distributions fed identical sequences are deeply equal, which
// the batch-oracle tests rely on.
type Distribution struct {
	hotNames  [distHotSlots]string
	hotCounts [distHotSlots]uint64
	hot       int
	overflow  map[string]uint64
	total     uint64
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution {
	return &Distribution{}
}

// Observe counts one event in category name.
//
//nestedlint:hotpath
func (d *Distribution) Observe(name string) {
	d.total++
	for i := 0; i < d.hot; i++ {
		if d.hotNames[i] == name {
			d.hotCounts[i]++
			return
		}
	}
	if d.hot < distHotSlots {
		d.hotNames[d.hot] = name
		d.hotCounts[d.hot] = 1
		d.hot++
		return
	}
	d.observeOverflow(name)
}

// observeOverflow spills a category beyond the fixed hot slots into
// the overflow map. Outlined (and kept out of line) so the map
// machinery stays off walkers' inlined Observe fast path: the walker
// class distributions fit the hot slots, so steady-state walks never
// come here.
//
//nestedlint:coldpath walker category sets fit the fixed hot slots; the overflow map serves only pathological name cardinalities
//go:noinline
func (d *Distribution) observeOverflow(name string) {
	if d.overflow == nil {
		d.overflow = make(map[string]uint64)
	}
	d.overflow[name]++
}

// count returns category name's count across slots and overflow.
func (d *Distribution) count(name string) uint64 {
	for i := 0; i < d.hot; i++ {
		if d.hotNames[i] == name {
			return d.hotCounts[i]
		}
	}
	return d.overflow[name]
}

// Fraction returns category name's share of all events.
func (d *Distribution) Fraction(name string) float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.count(name)) / float64(d.total)
}

// Total returns the number of observed events.
func (d *Distribution) Total() uint64 { return d.total }

// Categories returns the category names in sorted order.
func (d *Distribution) Categories() []string {
	out := make([]string, 0, d.hot+len(d.overflow))
	out = append(out, d.hotNames[:d.hot]...)
	//nestedlint:ignore iteration order is erased by the sort below before any key is observable
	for k := range d.overflow {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the distribution as "a=12.3% b=87.7%".
func (d *Distribution) String() string {
	var b strings.Builder
	for i, c := range d.Categories() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1f%%", c, 100*d.Fraction(c))
	}
	return b.String()
}

// Average tracks a running arithmetic mean of integer samples, e.g. the
// average number of parallel accesses per walk step (§9.4).
type Average struct {
	Sum   uint64
	Count uint64
}

// Observe records one sample.
//
//nestedlint:hotpath
func (a *Average) Observe(v uint64) {
	a.Sum += v
	a.Count++
}

// Value returns the mean, or 0 when empty.
func (a *Average) Value() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Sum) / float64(a.Count)
}
