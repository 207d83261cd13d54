package cachesim

import "nestedecpt/internal/addr"

// DRAMConfig describes the main-memory timing model, a compact stand-in
// for the DRAMSim2 backend the paper uses. Table 2: 4 channels, 8 banks
// per channel, DDR at 1GHz with tRP-tCAS-tRCD-tRAS of 11-11-11-28
// memory cycles. The core runs at 2GHz, so one memory cycle is two core
// cycles; the latencies below are expressed in core cycles.
type DRAMConfig struct {
	Channels int
	Banks    int
	// RowHitLatency is the core-cycle latency of a column access to an
	// open row (tCAS plus transfer).
	RowHitLatency uint64
	// RowMissLatency is the core-cycle latency of a precharge +
	// activate + column access (tRP + tRCD + tCAS plus transfer).
	RowMissLatency uint64
	// RowBytes is the size of one DRAM row buffer.
	RowBytes uint64
}

// DefaultDRAMConfig returns the Table 2 memory system.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Channels: 4,
		Banks:    8,
		// 11 memory cycles CAS + ~4 transfer = 15 mem cycles = 30 core
		// cycles, plus controller/queue overhead.
		RowHitLatency: 50,
		// (11+11+11) + transfer ≈ 37 mem cycles = 74 core cycles, plus
		// controller overhead.
		RowMissLatency: 110,
		RowBytes:       8 << 10,
	}
}

// DRAMStats counts DRAM traffic.
type DRAMStats struct {
	Accesses  uint64
	RowHits   uint64
	RowMisses uint64
	// QueueCycles accumulates cycles requests spent waiting for a busy
	// bank, a proxy for bandwidth pressure.
	QueueCycles uint64
	// QueuedAccesses counts accesses that waited at all.
	QueuedAccesses uint64
}

// DRAM is a channel/bank main memory with open-row policy and per-bank
// busy tracking. It is deliberately simple — enough to charge realistic
// and contention-sensitive latencies to the cache hierarchy's misses.
type DRAM struct {
	cfg       DRAMConfig
	openRow   []uint64 // each bank's open row plus one; 0 is a closed bank
	busyUntil []uint64
	stats     DRAMStats
	// Shift/mask fast path for the default power-of-two geometry; the
	// divide/modulo fallback below handles odd configurations.
	rowShift uint
	bankMask uint64
	pow2     bool
}

// NewDRAM builds a DRAM from cfg.
func NewDRAM(cfg DRAMConfig) *DRAM {
	n := cfg.Channels * cfg.Banks
	if n == 0 {
		panic("cachesim: DRAM with zero banks")
	}
	d := &DRAM{
		cfg:       cfg,
		openRow:   make([]uint64, n),
		busyUntil: make([]uint64, n),
	}
	if isPow2(cfg.RowBytes) && isPow2(uint64(n)) {
		d.pow2 = true
		d.rowShift = log2(cfg.RowBytes)
		d.bankMask = uint64(n) - 1
	}
	return d
}

func isPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

func log2(v uint64) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

// Access services a line fill for host physical address pa arriving at
// core cycle now and returns its latency in core cycles (including any
// time queued behind earlier requests to the same bank).
//
//nestedlint:hotpath
//nestedlint:domaincast row/bank interleaving slices raw hPA bits; no other space ever reaches DRAM
func (d *DRAM) Access(now uint64, pa addr.HPA) uint64 {
	d.stats.Accesses++
	// Interleave consecutive rows across channels then banks, the usual
	// address mapping for throughput.
	var row uint64
	var bank int
	if d.pow2 {
		row = uint64(pa) >> d.rowShift
		bank = int(row & d.bankMask)
	} else {
		row = uint64(pa) / d.cfg.RowBytes
		bank = int(row % uint64(len(d.busyUntil)))
	}

	var queue uint64
	if d.busyUntil[bank] > now {
		queue = d.busyUntil[bank] - now
		d.stats.QueueCycles += queue
		d.stats.QueuedAccesses++
	}

	var service uint64
	if d.openRow[bank] == row+1 {
		d.stats.RowHits++
		service = d.cfg.RowHitLatency
	} else {
		d.stats.RowMisses++
		service = d.cfg.RowMissLatency
		d.openRow[bank] = row + 1
	}
	d.busyUntil[bank] = now + queue + service
	return queue + service
}

// Stats returns a copy of the accumulated statistics.
func (d *DRAM) Stats() DRAMStats { return d.stats }

// ResetStats zeroes the statistics without disturbing row-buffer state.
func (d *DRAM) ResetStats() { d.stats = DRAMStats{} }
