package ecpt

import "unsafe"

// HostBytes returns the host bytes the table's live generations hold in
// their ways: every key and frame page, and one directory pointer for
// each.
func (t *Table[P]) HostBytes() uint64 {
	const (
		keyPage   = unsafe.Sizeof([linesPerPage]uint64{})
		framePage = unsafe.Sizeof([linesPerPage]frameGroup{})
		pointer   = unsafe.Sizeof(uintptr(0))
	)
	var n uint64
	for _, g := range []*generation[P]{t.cur, t.old} {
		if g == nil {
			continue
		}
		for w := range g.keys {
			n += uint64(g.keys[w].Len()) * uint64(keyPage+pointer)
			n += uint64(g.frames[w].Len()) * uint64(framePage+pointer)
		}
	}
	return n
}
