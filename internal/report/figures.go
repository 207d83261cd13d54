package report

import (
	"fmt"
	"io"

	"nestedecpt/internal/sim"
	"nestedecpt/internal/stats"
)

// speedup returns base/x as a speedup factor.
func speedup(base, x *sim.Result) float64 {
	if x.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(x.Cycles)
}

// Figure9 prints the speedups of every configuration over Nested Radix
// (4KB), per application and as a geometric mean, including the
// Advanced-technique breakdown of the Nested ECPT bars.
func (s *Suite) Figure9(w io.Writer) error { return s.sweep(w, s.figure9) }

func (s *Suite) figure9(w io.Writer) error {
	fmt.Fprintln(w, "Figure 9: Speedup over Nested Radix (4KB pages)")
	header := fmt.Sprintf("%-9s %7s %7s %7s %7s | %7s %7s %7s %7s | %7s %7s %7s %7s",
		"App", "NRadix", "NR-THP", "NECPT", "NE-THP", "Plain", "+STC", "+Step1", "+Step3", "Hybrid", "Hy-THP", "Radix", "ECPT")
	fmt.Fprintln(w, header)

	type cols struct{ vals []float64 }
	var all []cols
	for _, app := range s.Settings.apps() {
		base, err := s.baseline(app)
		if err != nil {
			return err
		}
		var vals []float64
		// Nested radix (baseline and THP).
		for _, thp := range []bool{false, true} {
			r, err := s.run(runKey{design: sim.DesignNestedRadix, app: app, thp: thp})
			if err != nil {
				return err
			}
			vals = append(vals, speedup(base, r))
		}
		// Advanced nested ECPTs, both page modes.
		for _, thp := range []bool{false, true} {
			r, err := s.run(runKey{design: sim.DesignNestedECPT, app: app, thp: thp, tech: TechAdvanced})
			if err != nil {
				return err
			}
			vals = append(vals, speedup(base, r))
		}
		// Technique breakdown (4KB pages).
		for _, tl := range []TechLevel{TechPlain, TechSTC, TechStep1, TechStep3} {
			r, err := s.run(runKey{design: sim.DesignNestedECPT, app: app, tech: tl})
			if err != nil {
				return err
			}
			vals = append(vals, speedup(base, r))
		}
		// Hybrid.
		for _, thp := range []bool{false, true} {
			r, err := s.run(runKey{design: sim.DesignNestedHybrid, app: app, thp: thp})
			if err != nil {
				return err
			}
			vals = append(vals, speedup(base, r))
		}
		// Native designs, 4KB pages (for the mean bars).
		for _, d := range []sim.Design{sim.DesignRadix, sim.DesignECPT} {
			r, err := s.run(runKey{design: d, app: app})
			if err != nil {
				return err
			}
			vals = append(vals, speedup(base, r))
		}
		all = append(all, cols{vals})
		fmt.Fprintf(w, "%-9s %s\n", app, fmtRow(vals))
	}
	// Geometric means.
	n := len(all[0].vals)
	geo := make([]float64, n)
	for i := 0; i < n; i++ {
		col := make([]float64, 0, len(all))
		for _, c := range all {
			col = append(col, c.vals[i])
		}
		geo[i] = stats.Geomean(col)
	}
	fmt.Fprintf(w, "%-9s %s\n", "GeoMean", fmtRow(geo))
	fmt.Fprintln(w, "(paper: NECPT 1.19x, NE-THP 1.24x over the respective radix configs;")
	fmt.Fprintln(w, " Plain only ~1.03-1.05x; columns 5-8 are cumulative technique stacks)")
	return nil
}

func fmtRow(vals []float64) string {
	out := ""
	for i, v := range vals {
		if i == 4 || i == 8 {
			out += " |"
		}
		out += fmt.Sprintf(" %7.3f", v)
	}
	return out
}

// Figure10 prints MMU busy cycles of the four nested configurations
// normalized to Nested Radix.
func (s *Suite) Figure10(w io.Writer) error { return s.sweep(w, s.figure10) }

func (s *Suite) figure10(w io.Writer) error {
	fmt.Fprintln(w, "Figure 10: MMU busy cycles, normalized to Nested Radix (4KB)")
	fmt.Fprintf(w, "%-9s %8s %8s %8s %8s\n", "App", "NRadix", "NR-THP", "NECPT", "NE-THP")
	var cols [4][]float64
	for _, app := range s.Settings.apps() {
		base, err := s.baseline(app)
		if err != nil {
			return err
		}
		var row [4]float64
		i := 0
		for _, d := range []sim.Design{sim.DesignNestedRadix, sim.DesignNestedECPT} {
			for _, thp := range []bool{false, true} {
				r, err := s.nested(d, app, thp)
				if err != nil {
					return err
				}
				row[i] = float64(r.MMUBusyCycles) / float64(base.MMUBusyCycles)
				cols[i] = append(cols[i], row[i])
				i++
			}
		}
		// Reorder to NRadix, NR-THP, NECPT, NE-THP (already in order).
		fmt.Fprintf(w, "%-9s %8.3f %8.3f %8.3f %8.3f\n", app, row[0], row[1], row[2], row[3])
	}
	fmt.Fprintf(w, "%-9s %8.3f %8.3f %8.3f %8.3f\n", "Mean",
		stats.Mean(cols[0]), stats.Mean(cols[1]), stats.Mean(cols[2]), stats.Mean(cols[3]))
	fmt.Fprintln(w, "(paper: Nested ECPTs use 25% / 31% fewer MMU busy cycles for 4KB / THP)")
	return nil
}

// Figure11 prints the page-walk latency histograms for MUMmer under
// Nested Radix THP and Nested ECPTs THP.
func (s *Suite) Figure11(w io.Writer) error { return s.sweep(w, s.figure11) }

func (s *Suite) figure11(w io.Writer) error {
	fmt.Fprintln(w, "Figure 11: Nested page-walk latency histogram (MUMmer, THP)")
	rr, err := s.nested(sim.DesignNestedRadix, "MUMmer", true)
	if err != nil {
		return err
	}
	re, err := s.nested(sim.DesignNestedECPT, "MUMmer", true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %12s %12s\n", "Cycles", "NestedRadix", "NestedECPTs")
	maxBins := rr.WalkLatency.NumBins()
	if re.WalkLatency.NumBins() > maxBins {
		maxBins = re.WalkLatency.NumBins()
	}
	// Aggregate into 40-cycle display bins.
	const group = 2
	for b := 0; b < maxBins; b += group {
		var pr, pe float64
		var mid float64
		for g := 0; g < group; g++ {
			m, p1 := rr.WalkLatency.Bin(b + g)
			_, p2 := re.WalkLatency.Bin(b + g)
			pr += p1
			pe += p2
			mid = m
		}
		if pr < 0.002 && pe < 0.002 {
			continue
		}
		fmt.Fprintf(w, "%-12.0f %12.4f %12.4f\n", mid, pr, pe)
	}
	fmt.Fprintf(w, "mean: radix=%.0f ecpt=%.0f   p95: radix=%d ecpt=%d\n",
		rr.WalkLatency.Mean(), re.WalkLatency.Mean(),
		rr.WalkLatency.Percentile(0.95), re.WalkLatency.Percentile(0.95))
	fmt.Fprintln(w, "(paper: radix shows a long sequential-pointer-chase tail; ECPT walks")
	fmt.Fprintln(w, " complete in about the cost of its parallel steps)")
	return nil
}

// Figure12 prints the per-interval PTE- and PMD-hCWT hit rates in the
// Step-3 hCWC for Nested ECPTs THP.
func (s *Suite) Figure12(w io.Writer) error { return s.sweep(w, s.figure12) }

func (s *Suite) figure12(w io.Writer) error {
	fmt.Fprintln(w, "Figure 12: hCWC hit rates of PTE (left) and PMD (right) hCWT entries")
	fmt.Fprintf(w, "%-9s | %10s %10s %8s | %10s %10s %8s\n",
		"", "THP", "", "", "4KB", "", "")
	fmt.Fprintf(w, "%-9s | %10s %10s %8s | %10s %10s %8s\n",
		"App", "PTE rate", "PMD rate", "PTE off", "PTE rate", "PMD rate", "PTE off")
	for _, app := range s.Settings.apps() {
		rt, err := s.nested(sim.DesignNestedECPT, app, true)
		if err != nil {
			return err
		}
		r4, err := s.nested(sim.DesignNestedECPT, app, false)
		if err != nil {
			return err
		}
		st, s4 := rt.NestedECPT, r4.NestedECPT
		fmt.Fprintf(w, "%-9s | %10.3f %10.3f %8d | %10.3f %10.3f %8d\n", app,
			st.PTESeries.Mean(), st.PMDSeries.Mean(), st.AdaptDisabled,
			s4.PTESeries.Mean(), s4.PMDSeries.Mean(), s4.AdaptDisabled)
	}
	fmt.Fprintln(w, "(paper thresholds: disable PTE caching below 0.5; re-enable when PMD > 0.85;")
	fmt.Fprintln(w, " GUPS and SysBench have low rates and converge to disabled)")
	return nil
}

// Figure13 prints the MMU RPKI and L2/L3 MPKI characterization.
func (s *Suite) Figure13(w io.Writer) error { return s.sweep(w, s.figure13) }

func (s *Suite) figure13(w io.Writer) error {
	fmt.Fprintln(w, "Figure 13: MMU requests and cache misses per kilo instruction")
	fmt.Fprintf(w, "%-9s | %7s %7s %7s %7s | %7s %7s %7s %7s | %7s %7s %7s %7s\n",
		"", "RPKI", "", "", "", "L2MPKI", "", "", "", "L3MPKI", "", "", "")
	fmt.Fprintf(w, "%-9s | %7s %7s %7s %7s | %7s %7s %7s %7s | %7s %7s %7s %7s\n",
		"App", "NR", "NR-THP", "NE", "NE-THP", "NR", "NR-THP", "NE", "NE-THP", "NR", "NR-THP", "NE", "NE-THP")
	var rpki, l2, l3 [4][]float64
	for _, app := range s.Settings.apps() {
		var rs [4]*sim.Result
		i := 0
		for _, d := range []sim.Design{sim.DesignNestedRadix, sim.DesignNestedECPT} {
			for _, thp := range []bool{false, true} {
				r, err := s.nested(d, app, thp)
				if err != nil {
					return err
				}
				rs[i] = r
				rpki[i] = append(rpki[i], r.MMURPKI())
				l2[i] = append(l2[i], r.L2MPKI())
				l3[i] = append(l3[i], r.L3MPKI())
				i++
			}
		}
		fmt.Fprintf(w, "%-9s | %7.1f %7.1f %7.1f %7.1f | %7.1f %7.1f %7.1f %7.1f | %7.1f %7.1f %7.1f %7.1f\n",
			app,
			rs[0].MMURPKI(), rs[1].MMURPKI(), rs[2].MMURPKI(), rs[3].MMURPKI(),
			rs[0].L2MPKI(), rs[1].L2MPKI(), rs[2].L2MPKI(), rs[3].L2MPKI(),
			rs[0].L3MPKI(), rs[1].L3MPKI(), rs[2].L3MPKI(), rs[3].L3MPKI())
	}
	fmt.Fprintf(w, "%-9s | %7.1f %7.1f %7.1f %7.1f | %7.1f %7.1f %7.1f %7.1f | %7.1f %7.1f %7.1f %7.1f\n",
		"Mean",
		stats.Mean(rpki[0]), stats.Mean(rpki[1]), stats.Mean(rpki[2]), stats.Mean(rpki[3]),
		stats.Mean(l2[0]), stats.Mean(l2[1]), stats.Mean(l2[2]), stats.Mean(l2[3]),
		stats.Mean(l3[0]), stats.Mean(l3[1]), stats.Mean(l3[2]), stats.Mean(l3[3]))
	fmt.Fprintln(w, "(paper: ECPTs issue 13-15% more MMU requests but have ~10% lower L3 MPKI)")
	return nil
}

// Figure14 prints the Direct/Size/Partial/Complete walk breakdown for
// the host (left) and guest (right) under Nested ECPTs THP.
func (s *Suite) Figure14(w io.Writer) error { return s.sweep(w, s.figure14) }

func (s *Suite) figure14(w io.Writer) error {
	fmt.Fprintln(w, "Figure 14: Walk-type breakdown, Nested ECPTs THP (host | guest), %")
	fmt.Fprintf(w, "%-9s | %7s %7s %7s %7s | %7s %7s %7s %7s\n",
		"App", "Direct", "Size", "Partial", "Compl", "Direct", "Size", "Partial", "Compl")
	classes := []string{"Direct", "Size", "Partial", "Complete"}
	for _, app := range s.Settings.apps() {
		r, err := s.nested(sim.DesignNestedECPT, app, true)
		if err != nil {
			return err
		}
		st := r.NestedECPT
		row := fmt.Sprintf("%-9s |", app)
		for _, c := range classes {
			row += fmt.Sprintf(" %7.1f", 100*st.HostClasses.Fraction(c))
		}
		row += " |"
		for _, c := range classes {
			row += fmt.Sprintf(" %7.1f", 100*st.GuestClasses.Fraction(c))
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintln(w, "(paper: host walks ~90% direct on average; guest walks ~82% size walks,")
	fmt.Fprintln(w, " except GUPS/SysBench/MUMmer where huge pages make direct walks dominate)")
	return nil
}
