package ecpt

import "nestedecpt/internal/addr"

// Probe describes one hardware memory access a walker issues against
// this table: the physical address of the ECPT line it reads and what
// the hardware finds there. Walkers issue all probes of a step in
// parallel (§3.1) and inspect tags afterwards.
type Probe[P addr.Addr] struct {
	// Way is the ECPT way the probe targets.
	Way int
	// PA is the physical address of the 64-byte line, in the table's
	// own address space (gPA for guest tables, hPA for host tables).
	PA P
	// TagMatch reports whether the line's VPN-group tag matched.
	TagMatch bool
	// Match reports whether the requested translation is present
	// (tag matched and the slot bit is set); Frame is then valid.
	Match bool
	Frame P
}

// AllWays is the way filter meaning "probe every way" (a Size walk in
// the paper's naming; used when the CWT gave no way information).
const AllWays = -1

// AppendProbes appends the memory accesses needed to look up vpn onto
// dst and returns the extended slice. way restricts the probe to a
// single way (a Direct walk) or AllWays. During an elastic resize an
// unmigrated key needs its old-generation bucket probed too, so a way
// can contribute up to two probes — the transient extra bandwidth
// inherent to elastic resizing.
//
// Walkers call this once per probe group on every translation, so it
// is the table's hot read path: with a caller-reused dst it performs
// no allocation, mirroring the fixed probe registers the paper's
// hardware walkers reuse across steps (§3.1).
//
//nestedlint:hotpath
func (t *Table[P]) AppendProbes(dst []Probe[P], vpn uint64, way int) []Probe[P] {
	tag, slot := lineTag(vpn), lineSlot(vpn)
	cur, old, mig := t.readState()
	if way != AllWays {
		// Direct walk: the CWC pinned the way, so exactly one bucket
		// (plus its unmigrated old-generation twin during a resize) is
		// probed — the warm-path shape, kept branch-free in the loop.
		return appendWayProbes(dst, cur, old, mig, way, tag, slot)
	}
	for w := 0; w < t.cfg.Ways; w++ {
		dst = appendWayProbes(dst, cur, old, mig, w, tag, slot)
	}
	return dst
}

//nestedlint:hotpath
func appendWayProbes[P addr.Addr](dst []Probe[P], cur, old *generation[P], mig []int, w int, tag uint64, slot int) []Probe[P] {
	idx := cur.index(w, tag)
	dst = appendProbe(dst)
	fillProbe(&dst[len(dst)-1], cur, w, idx, tag, slot)
	if old != nil {
		oidx := old.index(w, tag)
		if oidx >= mig[w] {
			dst = appendProbe(dst)
			fillProbe(&dst[len(dst)-1], old, w, oidx, tag, slot)
		}
	}
	return dst
}

// appendProbe extends dst by one element, reusing capacity when the
// caller recycles its buffer (the walkers' steady state) so the probe
// is filled in place rather than copied through an append.
//
//nestedlint:hotpath
func appendProbe[P addr.Addr](dst []Probe[P]) []Probe[P] {
	if len(dst) < cap(dst) {
		return dst[:len(dst)+1]
	}
	return append(dst, Probe[P]{})
}

// ProbesFor returns the memory accesses needed to look up vpn in a
// freshly allocated slice. It is AppendProbes without caller-provided
// scratch — convenient for tests and cold paths; hot paths should
// reuse a buffer through AppendProbes instead.
func (t *Table[P]) ProbesFor(vpn uint64, way int) []Probe[P] {
	return t.AppendProbes(make([]Probe[P], 0, 2*t.cfg.Ways), vpn, way)
}

func fillProbe[P addr.Addr](p *Probe[P], g *generation[P], w, idx int, tag uint64, slot int) {
	*p = Probe[P]{Way: w, PA: g.linePA(w, idx)}
	if key := g.key(w, idx); keyHolds(key, tag) {
		p.TagMatch = true
		if keyPresent(key)&(1<<slot) != 0 {
			p.Match = true
			p.Frame = g.group(w, idx)[slot]
		}
	}
}
