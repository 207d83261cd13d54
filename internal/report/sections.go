package report

import (
	"fmt"
	"io"

	"nestedecpt/internal/sim"
	"nestedecpt/internal/stats"
)

// Section94 prints the nested ECPT walk characterization of §9.4: the
// STC size sweep, the average parallel accesses per step, and the CWC
// hit rates.
func (s *Suite) Section94(w io.Writer) error { return s.sweep(w, s.section94) }

func (s *Suite) section94(w io.Writer) error {
	fmt.Fprintln(w, "Section 9.4: Characterizing nested ECPT walks (THP)")

	// STC size sweep over the configured applications.
	fmt.Fprintln(w, "STC hit rate vs size (paper: 10 -> 99%, 8 -> ~90%, 4 -> ~50%):")
	for _, entries := range []int{10, 8, 4} {
		var rates []float64
		for _, app := range s.Settings.apps() {
			r, err := s.run(runKey{design: sim.DesignNestedECPT, app: app, thp: true, tech: TechAdvanced, stc: entries})
			if err != nil {
				return err
			}
			if r.NestedECPT.STC.Total() > 0 {
				rates = append(rates, r.NestedECPT.STC.HitRate())
			}
		}
		fmt.Fprintf(w, "  %2d entries: %.1f%%\n", entries, 100*stats.Mean(rates))
	}

	// Average parallel accesses per step.
	var p1, p2, p3, p3noTHP []float64
	for _, app := range s.Settings.apps() {
		r, err := s.nested(sim.DesignNestedECPT, app, true)
		if err != nil {
			return err
		}
		st := r.NestedECPT
		p1 = append(p1, st.Par1.Value())
		p2 = append(p2, st.Par2.Value())
		p3 = append(p3, st.Par3.Value())
		r4, err := s.run(runKey{design: sim.DesignNestedECPT, app: app, tech: TechAdvanced})
		if err != nil {
			return err
		}
		p3noTHP = append(p3noTHP, r4.NestedECPT.Par3.Value())
	}
	fmt.Fprintf(w, "avg parallel accesses: step1=%.1f step2=%.1f step3=%.1f (no-THP step3=%.1f)\n",
		stats.Mean(p1), stats.Mean(p2), stats.Mean(p3), stats.Mean(p3noTHP))
	fmt.Fprintln(w, "(paper: 2.8 / 2.8 / 1.6, and 1.7 for step 3 without THP)")
	return nil
}

// Section95 prints the memory consumed by translation structures.
func (s *Suite) Section95(w io.Writer) error { return s.sweep(w, s.section95) }

func (s *Suite) section95(w io.Writer) error {
	fmt.Fprintln(w, "Section 9.5: Memory consumption of translation structures")
	fmt.Fprintf(w, "%-9s | %9s %9s %9s | %9s %9s %9s | %9s\n",
		"App", "NR host", "NR guest", "NR total", "NE host", "NE guest", "NE total", "entries*8B")
	var nrT, neT, peT []float64
	for _, app := range s.Settings.apps() {
		nr, err := s.nested(sim.DesignNestedRadix, app, false)
		if err != nil {
			return err
		}
		ne, err := s.nested(sim.DesignNestedECPT, app, false)
		if err != nil {
			return err
		}
		mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
		fmt.Fprintf(w, "%-9s | %9.1f %9.1f %9.1f | %9.1f %9.1f %9.1f | %9.1f\n",
			app,
			mb(nr.HostPTBytes), mb(nr.GuestPTBytes), mb(nr.HostPTBytes+nr.GuestPTBytes),
			mb(ne.HostPTBytes), mb(ne.GuestPTBytes), mb(ne.HostPTBytes+ne.GuestPTBytes),
			mb(ne.PTEntries*8))
		nrT = append(nrT, mb(nr.HostPTBytes+nr.GuestPTBytes))
		neT = append(neT, mb(ne.HostPTBytes+ne.GuestPTBytes))
		peT = append(peT, mb(ne.PTEntries*8))
	}
	fmt.Fprintf(w, "%-9s | %29.1f MB avg | %29.1f MB avg | %9.1f\n", "Mean",
		stats.Mean(nrT), stats.Mean(neT), stats.Mean(peT))
	fmt.Fprintln(w, "(paper at full scale: 84MB radix vs 97MB ECPT structures for 60MB of entries;")
	fmt.Fprintln(w, " the point is ECPTs use only slightly more memory than radix)")
	return nil
}

// Section96 compares Nested ECPTs against the other advanced designs:
// ideal Agile Paging, POM-TLB, and flat nested page tables.
func (s *Suite) Section96(w io.Writer) error { return s.sweep(w, s.section96) }

func (s *Suite) section96(w io.Writer) error {
	fmt.Fprintln(w, "Section 9.6: Comparison to other advanced designs (4KB pages)")
	fmt.Fprintf(w, "%-9s %9s %9s %9s %9s %9s\n", "App", "NRadix", "Agile", "POM-TLB", "Flat", "NECPT")
	var cols [5][]float64
	for _, app := range s.Settings.apps() {
		base, err := s.baseline(app)
		if err != nil {
			return err
		}
		designs := []sim.Design{sim.DesignNestedRadix, sim.DesignAgileIdeal, sim.DesignPOMTLB, sim.DesignFlatNested, sim.DesignNestedECPT}
		row := fmt.Sprintf("%-9s", app)
		for i, d := range designs {
			k := runKey{design: d, app: app}
			if d == sim.DesignNestedECPT {
				k.tech = TechAdvanced
			}
			r, err := s.run(k)
			if err != nil {
				return err
			}
			v := speedup(base, r)
			cols[i] = append(cols[i], v)
			row += fmt.Sprintf(" %9.3f", v)
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintf(w, "%-9s %9.3f %9.3f %9.3f %9.3f %9.3f\n", "GeoMean",
		stats.Geomean(cols[0]), stats.Geomean(cols[1]), stats.Geomean(cols[2]),
		stats.Geomean(cols[3]), stats.Geomean(cols[4]))
	fmt.Fprintln(w, "(paper: Nested ECPTs outperform ideal Agile by 16%, POM-TLB by 14%,")
	fmt.Fprintln(w, " flat nested tables by 12% without THP)")
	return nil
}

// All runs every experiment in paper order. It plans the union of
// every figure's and section's runs up front, so the whole evaluation
// fans out as one sweep instead of one sweep per figure.
func (s *Suite) All(w io.Writer) error { return s.sweep(w, s.all) }

func (s *Suite) all(w io.Writer) error {
	Table1(w)
	fmt.Fprintln(w)
	Table2(w, s.Settings)
	fmt.Fprintln(w)
	Table3(w)
	fmt.Fprintln(w)
	Table4(w, s.Settings)
	fmt.Fprintln(w)
	for _, f := range []func(io.Writer) error{
		s.figure9, s.figure10, s.figure11, s.figure12, s.figure13, s.figure14,
		s.section94, s.section95, s.section96,
	} {
		if err := f(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
