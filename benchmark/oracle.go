package main

import (
	"nestedecpt/internal/addr"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/workload"
)

// oracle is the functional translation every walker is held to: the
// guest kernel's page tables composed with the hypervisor's, with no
// timing, caches or walker state involved.
func oracle(m *sim.Machine, va addr.GVA) (addr.HPA, bool) {
	gpa, _, ok := m.Kernel().Translate(va)
	if !ok {
		return 0, false
	}
	if m.Hypervisor() == nil {
		return addr.IdentityHPA(gpa), true
	}
	hpa, _, ok := m.Hypervisor().Translate(gpa)
	return hpa, ok
}

// frameAgrees reports whether a walk's frame and page size place va at
// the host physical address want.
func frameAgrees(frame addr.HPA, size addr.PageSize, va addr.GVA, want addr.HPA) bool {
	return addr.Translate(frame, va, size) == want
}

// oracleSample walks n addresses of the workload's own stream on a
// machine that has finished its run and counts every walk that fails
// or disagrees with the oracle.
func oracleSample(m *sim.Machine, cfg sim.Config, n int) check {
	var c check
	gen, err := workload.New(cfg.Workload, cfg.WorkloadOpts)
	if err != nil {
		c.fail(uint64(n), "oracle: %v", err)
		return c
	}
	now := uint64(1) << 40
	for i := 0; i < n; i++ {
		va := gen.Next().VA
		c.attempted++
		res, err := walkServiced(m.Walker(), m, now, va)
		if err != nil {
			c.fail(1, "oracle: walk %#x: %v", va, err)
			continue
		}
		now += res.Latency + 1
		want, ok := oracle(m, va)
		if !ok || !frameAgrees(res.Frame, res.Size, va, want) {
			c.fail(1, "oracle: walk %#x gave frame %#x size %v, page tables say %#x", va, res.Frame, res.Size, want)
		}
	}
	return c
}
