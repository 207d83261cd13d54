package radix

import (
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

// The GUPS table at the simulator's default scale of 16: one 4GB VMA
// at the generator's base, every page mapped.
const (
	gupsBase  = 0x4000_0000_0000
	gupsBytes = 64 << 30 / 16
)

// gupsTable maps the whole GUPS footprint with pages of the given size,
// frames handed out in order as a kernel's first touches would.
func gupsTable(b *testing.B, size addr.PageSize) *Table[uint64, uint64] {
	b.Helper()
	alloc := memsim.NewAllocator[uint64](2*gupsBytes, 1)
	tb := mustNew(alloc)
	for va := uint64(gupsBase); va < gupsBase+gupsBytes; va += size.Bytes() {
		frame, ok := alloc.Alloc(size, memsim.PurposeData)
		if !ok {
			b.Fatal("out of frames")
		}
		if err := tb.Map(va, size, frame); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

// BenchmarkAppendWalk walks uniformly random GUPS addresses, as the
// generator draws them, through a fully populated table.
func BenchmarkAppendWalk(b *testing.B) {
	for _, size := range []addr.PageSize{addr.Page4K, addr.Page2M} {
		b.Run(size.String(), func(b *testing.B) {
			tb := gupsTable(b, size)
			rng := vhash.NewRNG(42)
			vas := make([]uint64, 4096)
			for i := range vas {
				vas[i] = gupsBase + rng.Uint64n(gupsBytes/8)*8
			}
			steps := make([]Step[uint64], 0, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ok bool
				if steps, ok = tb.AppendWalk(steps[:0], vas[i%len(vas)]); !ok {
					b.Fatal("walk faulted")
				}
			}
		})
	}
}

// BenchmarkMap maps the GUPS footprint's 4KB pages in order, a fresh
// table each time the footprint is full: table pages are built as a
// kernel's first touches build them, one L1 page every 512 maps.
func BenchmarkMap(b *testing.B) {
	var tb *Table[uint64, uint64]
	va := uint64(gupsBase + gupsBytes)
	for i := 0; i < b.N; i++ {
		if va == gupsBase+gupsBytes {
			b.StopTimer()
			tb, va = mustNew(memsim.NewAllocator[uint64](1<<30, 1)), gupsBase
			b.StartTimer()
		}
		if err := tb.Map(va, addr.Page4K, va-gupsBase); err != nil {
			b.Fatal(err)
		}
		va += addr.Page4K.Bytes()
	}
}
