package ecpt_test

import (
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/sim"
)

// TestGUPSMachineHostBytes pins the host width of a translation on a
// populated Nested ECPT GUPS machine: every line of every live
// generation, guest and host, costs 40 host bytes (an 8-byte key word
// and eight 32-bit frame numbers), plus two 8-byte directory pointers
// for each 64-line table page. A frame word wider than 32 bits fails it.
func TestGUPSMachineHostBytes(t *testing.T) {
	m, err := sim.NewMachine(sim.DefaultConfig(sim.DesignNestedECPT, "GUPS", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Prepopulate(); err != nil {
		t.Fatal(err)
	}
	guest, gLines, gBytes := setHostBytes(t, m.Kernel().ECPTs())
	host, hLines, hBytes := setHostBytes(t, m.Hypervisor().ECPTs())
	if guest == 0 || host == 0 {
		t.Fatalf("%d guest and %d host translations: the machine is not populated", guest, host)
	}
	lines, bytes := gLines+hLines, gBytes+hBytes
	const perLine, dirPerPage = 40, 2 * 8
	if want := lines*perLine + lines/64*dirPerPage; bytes != want {
		t.Fatalf("%d live lines hold %d host bytes, want %d (%d B a line, %d B of directory a page)", lines, bytes, want, perLine, dirPerPage)
	}
	t.Logf("%d translations in %d live lines: %.1f MiB of host ECPT storage", guest+host, lines, float64(bytes)/(1<<20))
}

// setHostBytes returns a set's translations, the lines of its tables'
// live generations and the host bytes they hold.
func setHostBytes[V, P addr.Addr](t *testing.T, s *ecpt.Set[V, P]) (entries, lines, bytes uint64) {
	t.Helper()
	for _, size := range addr.Sizes() {
		tb := s.Table(size)
		if n := tb.CapacityLines(); n%(64*tb.Ways()) != 0 {
			t.Fatalf("%s table: %d lines over %d ways do not fill whole 64-line pages", size.LevelName(), n, tb.Ways())
		}
		entries += tb.Entries()
		lines += uint64(tb.CapacityLines())
		bytes += tb.HostBytes()
	}
	return entries, lines, bytes
}
