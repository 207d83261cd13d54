package main

import (
	"errors"
	"fmt"
	"time"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/core"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/tlbsim"
	"nestedecpt/internal/workload"
)

// shadow is sim's per-access pipeline rebuilt from a machine's
// effective configuration out of the same public parts, so that a
// clock can stand between the layers: Generator.Next, the demand-fault
// check, TLB.Access, Walker.Walk, TLB.Fill and the data access. It
// leaves out the co-runners' shared-cache traffic, so its simulated
// cycles may differ from sim.Run's; its TLB and walk counts may not —
// they depend only on the address stream and the fills — and the
// traced pass fails if they do.
type shadow struct {
	cfg    sim.Config
	gen    workload.Generator
	kern   *kernel.Kernel
	hyp    *hypervisor.Hypervisor
	tlb    *tlbsim.TLB
	mem    *cachesim.Hierarchy
	walker core.Walker
	cycles float64
	walks  uint64

	// Busy time per layer over the timed steps, one clock read apart.
	busy  [numSegments]time.Duration
	calls [numSegments]uint64
}

// The pipeline's segments, in step order.
const (
	segNext = iota
	segFault
	segTLBAccess
	segWalk
	segTLBFill
	segData
	numSegments
)

var segmentNames = [numSegments]struct{ layer, name, metric string }{
	{"workload", "Generator.Next", "sim.workload_share"},
	{"kernel", "Touch+EnsureMapped", ""},
	{"tlbsim", "TLB.Access", "sim.tlbsim_share"},
	{"core", "Walker.Walk", "sim.walk_share"},
	{"tlbsim", "TLB.Fill", "sim.tlbsim_share"},
	{"cachesim", "Hierarchy.Access", "sim.data_access_share"},
}

// newShadow mirrors sim.NewMachine for an already-normalised config.
func newShadow(cfg sim.Config) (*shadow, error) {
	gen, err := workload.New(cfg.Workload, cfg.WorkloadOpts)
	if err != nil {
		return nil, err
	}
	s := &shadow{cfg: cfg, gen: gen, tlb: tlbsim.New(cfg.TLB), mem: cachesim.NewHierarchy(cfg.Hierarchy)}
	s.kern, err = kernel.New(kernel.Config{
		GuestMemBytes:       cfg.GuestMemBytes,
		THP:                 cfg.THP,
		BuildRadix:          cfg.Design.UsesGuestRadix(),
		BuildECPT:           cfg.Design.UsesGuestECPT(),
		ECPT:                ecpt.ScaledSetConfig(false, cfg.WorkloadOpts.Scale),
		Seed:                cfg.WorkloadOpts.Seed + 101,
		HugePageFailureRate: cfg.HugePageFailureRate,
	})
	if err != nil {
		return nil, err
	}
	for _, v := range gen.VMAs() {
		s.kern.DefineVMA(v)
	}
	s.hyp, err = hypervisor.New(hypervisor.Config{
		HostMemBytes:        cfg.HostMemBytes,
		THP:                 cfg.THP,
		BuildRadix:          !cfg.Design.UsesHostECPT(),
		BuildECPT:           cfg.Design.UsesHostECPT(),
		ECPT:                ecpt.ScaledSetConfig(true, cfg.WorkloadOpts.Scale),
		Seed:                cfg.WorkloadOpts.Seed + 202,
		HugePageFailureRate: cfg.HugePageFailureRate,
	})
	if err != nil {
		return nil, err
	}
	switch cfg.Design {
	case sim.DesignNestedECPT:
		s.walker = core.NewNestedECPT(cfg.NestedECPT, s.mem, s.kern, s.hyp)
	case sim.DesignNestedRadix:
		s.walker = core.NewNestedRadix(cfg.RadixWalk, s.mem, s.kern, s.hyp)
	default:
		return nil, fmt.Errorf("shadow pipeline has no wiring for %v", cfg.Design)
	}
	return s, nil
}

func (s *shadow) prepopulate() error {
	for _, v := range s.gen.VMAs() {
		for va := v.Base; va < addr.Add(v.Base, v.Size); {
			_, size, err := s.kern.Touch(va)
			if err != nil {
				return err
			}
			if err := s.mapHost(va); err != nil {
				return err
			}
			va = addr.Add(va, size.Bytes())
		}
	}
	return nil
}

func (s *shadow) mapHost(va addr.GVA) error {
	gpa, _, ok := s.kern.Translate(va)
	if !ok {
		return fmt.Errorf("shadow: %#x untranslatable after touch", va)
	}
	_, err := s.hyp.EnsureMapped(gpa, false)
	return err
}

func (s *shadow) walk(va addr.GVA) (core.WalkResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := s.walker.Walk(uint64(s.cycles), va)
		if err == nil {
			return res, nil
		}
		var nm *core.ErrNotMapped
		if !errors.As(err, &nm) || attempt > 64 {
			return res, err
		}
		s.cycles += float64(s.cfg.Timing.PageFaultCycles)
		if nm.Space == "host" {
			_, err = s.hyp.EnsureMapped(nm.GPA, nm.PageTable)
		} else {
			_, _, err = s.kern.Touch(nm.GVA)
		}
		if err != nil {
			return res, err
		}
	}
}

// step runs one access. With timed set, a clock read separates each
// layer from the next and the segment between two reads is charged to
// the layer inside it.
func (s *shadow) step(timed bool) error {
	t := &s.cfg.Timing
	var mark time.Time
	if timed {
		mark = time.Now()
	}
	lap := func(seg int) {
		if timed {
			n := time.Now()
			s.busy[seg] += n.Sub(mark)
			s.calls[seg]++
			mark = n
		}
	}

	acc := s.gen.Next()
	lap(segNext)
	s.cycles += float64(acc.Gap) / t.IssueWidth
	if faulted, _, err := s.kern.Touch(acc.VA); err != nil {
		return err
	} else if faulted {
		s.cycles += float64(t.PageFaultCycles)
	}
	if err := s.mapHost(acc.VA); err != nil {
		return err
	}
	lap(segFault)

	tr := s.tlb.Access(acc.VA)
	lap(segTLBAccess)
	s.cycles += float64(tr.Latency)
	frame, size := tr.Frame, tr.Size
	if !tr.Hit() {
		wres, err := s.walk(acc.VA)
		lap(segWalk)
		if err != nil {
			return err
		}
		s.walks++
		s.cycles += float64(wres.Latency) * t.ExposedWalkFrac
		s.tlb.Fill(acc.VA, wres.Size, wres.Frame)
		lap(segTLBFill)
		frame, size = wres.Frame, wres.Size
	}

	lat, _ := s.mem.Access(uint64(s.cycles), addr.Translate(frame, acc.VA, size), cachesim.SourceCPU)
	lap(segData)
	if acc.Write {
		s.cycles += float64(lat) * t.ExposedWriteFrac
	} else {
		s.cycles += float64(lat) * t.ExposedReadFrac
	}
	return nil
}
