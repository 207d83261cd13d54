package workload

import (
	"nestedecpt/internal/addr"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/vhash"
)

// graphParams captures how each GraphBIG kernel mixes the three access
// patterns a CSR graph computation exhibits:
//
//   - sequential scans of the offset/frontier arrays,
//   - bursts of consecutive edge-list reads (one burst per visited
//     vertex, length distributed like the degree), and
//   - irregular single-element reads of per-vertex property arrays,
//     addressed by neighbour IDs drawn from a power-law distribution.
//
// The mix is what differentiates the kernels' TLB behaviour: PR and DC
// scan heavily, TC and SSSP gather heavily, DFS pointer-chases.
type graphParams struct {
	// seqFrac is the probability the next access continues a
	// sequential scan.
	seqFrac float64
	// burstMean is the mean edge-burst length (like mean degree).
	burstMean int
	// theta is the Zipf skew of neighbour IDs (hot vertices).
	theta float64
	// writeFrac is the probability an irregular access is a store.
	writeFrac float64
	// gapMean is the mean instruction gap between accesses.
	gapMean uint64
	// paperGB is the Table 4 footprint.
	paperGB float64
}

var graphKernels = map[string]graphParams{
	// BC runs forward BFS plus backward accumulation: moderate scans,
	// many property updates, the largest working set.
	"BC": {seqFrac: 0.35, burstMean: 12, theta: 0.7, writeFrac: 0.45, gapMean: 5, paperGB: 17.3},
	// BFS scans the frontier and gathers neighbour visited-flags.
	"BFS": {seqFrac: 0.45, burstMean: 12, theta: 0.6, writeFrac: 0.25, gapMean: 5, paperGB: 9.3},
	// CC label-propagates: balanced scan/gather with frequent writes.
	"CC": {seqFrac: 0.40, burstMean: 12, theta: 0.6, writeFrac: 0.40, gapMean: 5, paperGB: 9.3},
	// DC is one sequential degree scan — almost no irregularity.
	"DC": {seqFrac: 0.85, burstMean: 4, theta: 0.4, writeFrac: 0.10, gapMean: 4, paperGB: 9.3},
	// DFS pointer-chases the discovery stack: tiny bursts, deep skew.
	"DFS": {seqFrac: 0.20, burstMean: 3, theta: 0.8, writeFrac: 0.30, gapMean: 6, paperGB: 9.0},
	// PR alternates full scans with rank gathers from all neighbours.
	"PR": {seqFrac: 0.55, burstMean: 16, theta: 0.6, writeFrac: 0.30, gapMean: 4, paperGB: 9.3},
	// SSSP relaxes edges in priority order: gather-dominated.
	"SSSP": {seqFrac: 0.25, burstMean: 8, theta: 0.75, writeFrac: 0.35, gapMean: 6, paperGB: 9.3},
	// TC intersects adjacency lists: long bursts plus heavy gathers.
	"TC": {seqFrac: 0.30, burstMean: 24, theta: 0.65, writeFrac: 0.05, gapMean: 4, paperGB: 11.9},
}

// graphGen lays the scaled footprint out as three arrays, mirroring a
// CSR graph: 10% offsets, 60% edge lists, 30% vertex properties.
type graphGen struct {
	name   string
	params graphParams
	rng    *vhash.RNG
	// zipf draws neighbour IDs over the property array.
	zipf vhash.Zipf

	offBase  addr.GVA
	offSize  uint64
	edgeBase addr.GVA
	edgeSize uint64
	propBase addr.GVA
	propSize uint64

	// scan state
	scanPos uint64
	// burst state
	burstLeft int
	burstPos  uint64
}

const (
	graphOffBase  = 0x1000_0000_0000
	graphEdgeBase = 0x2000_0000_0000
	graphPropBase = 0x3000_0000_0000
	elemBytes     = 8
)

func newGraph(name string, opts Options) *graphGen {
	p := graphKernels[name]
	total := gb(p.paperGB) / opts.Scale
	g := &graphGen{
		name:     name,
		params:   p,
		rng:      vhash.NewRNG(opts.Seed ^ uint64(len(name))<<32 ^ uint64(name[0])),
		offBase:  graphOffBase,
		offSize:  alignUp(total/10, 1<<21),
		edgeBase: graphEdgeBase,
		edgeSize: alignUp(total*6/10, 1<<21),
		propBase: graphPropBase,
		propSize: alignUp(total*3/10, 1<<21),
	}
	g.zipf = vhash.NewZipf(g.propSize/elemBytes, p.theta)
	return g
}

func (g *graphGen) Name() string { return g.name }

func (g *graphGen) Footprint() uint64 { return g.offSize + g.edgeSize + g.propSize }

func (g *graphGen) PaperFootprint() uint64 { return gb(g.params.paperGB) }

func (g *graphGen) VMAs() []kernel.VMA {
	// The offset and edge arrays are large mmap'd regions Linux backs
	// with huge pages; the per-vertex property arrays come from many
	// smaller allocations that khugepaged rarely assembles into 2MB
	// pages — which is why the paper's graph kernels remain
	// size-walk-dominated even with THP (Figure 14), unlike
	// GUPS/SysBench/MUMmer whose single giant arrays huge-map fully.
	return []kernel.VMA{
		{Base: g.offBase, Size: g.offSize, THPEligible: true},
		{Base: g.edgeBase, Size: g.edgeSize, THPEligible: true},
		{Base: g.propBase, Size: g.propSize, THPEligible: false},
	}
}

func (g *graphGen) gap() uint64 {
	m := g.params.gapMean
	return 1 + g.rng.Uint64n(2*m)
}

func (g *graphGen) Next() Access {
	// Continue an edge burst if one is active.
	if g.burstLeft > 0 {
		g.burstLeft--
		a := Access{VA: addr.Add(g.edgeBase, g.burstPos%g.edgeSize), Gap: g.gap()}
		g.burstPos += elemBytes
		return a
	}
	r := g.rng.Float64()
	switch {
	case r < g.params.seqFrac:
		// Sequential scan over the offset array.
		a := Access{VA: addr.Add(g.offBase, g.scanPos%g.offSize), Gap: g.gap()}
		g.scanPos += elemBytes
		return a
	case r < g.params.seqFrac+0.25:
		// Visit a vertex: start an edge burst at its adjacency list.
		deg := 1 + g.rng.Intn(2*g.params.burstMean)
		g.burstLeft = deg
		edges := g.edgeSize / elemBytes
		g.burstPos = g.rng.Uint64n(edges) * elemBytes
		a := Access{VA: addr.Add(g.edgeBase, g.burstPos%g.edgeSize), Gap: g.gap()}
		g.burstPos += elemBytes
		g.burstLeft--
		return a
	default:
		// Irregular gather/scatter on a neighbour's property.
		props := g.propSize / elemBytes
		idx := g.zipf.Draw(g.rng)
		// Scatter hot IDs across the array so skew does not collapse
		// into one page.
		idx = (idx * 0x9E3779B97F4A7C15) % props
		return Access{
			VA:    addr.Add(g.propBase, idx*elemBytes),
			Write: g.rng.Float64() < g.params.writeFrac,
			Gap:   g.gap(),
		}
	}
}
