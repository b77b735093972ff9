package exec

import (
	"fmt"
	"slices"
	"strings"

	"swcam/internal/sw"
)

// Every CPE lowering lays its LDM out from one sw.LDMPlan per (kernel,
// backend): the kernel's buffers with their offsets and lengths, in the
// order the lowering uses them. An engine builds each plan on its first
// CPE launch of that kernel — not in NewEngine, so an engine that only
// runs the Intel backend constructs at any nlev — and an overflow
// panics there, naming the buffer. Every later launch lays the plan
// down with one LDM.Load per CPE and takes its buffers with LDM.View:
// no names, no capacity checks and no re-carving per work item, and the
// plan's size is each CPE's working set, so Cost.LDMPeak is the
// kernel's own. The plan types live beside their lowerings.

// cpePlans are an engine's LDM plans, nil until first use.
type cpePlans struct {
	rhsACC             *rhsACCLDM
	rhsAth             *rhsAthLDM
	eulerACC, eulerAth *eulerLDM
	slabACC, slabAth   [len(slabSpecs)]*slabLDM
	remapACC, remapAth *remapLDM
	remapT             *remapTLDM
}

// addBufs adds one buffer of n values per name in names (space
// separated) to p, storing each buffer's place through the matching
// pointer of bufs.
func addBufs(p *sw.LDMPlan, n int, names string, bufs ...*sw.LDMBuf) {
	f := strings.Fields(names)
	if len(f) != len(bufs) {
		panic(fmt.Sprintf("exec: %d LDM buffer names for %d buffers", len(f), len(bufs)))
	}
	for i, name := range f {
		*bufs[i] = p.Add(name, n)
	}
}

// slabPlan returns the plan of slab kernel k's lowering on backend b.
func (en *Engine) slabPlan(k *slabSpec, b Backend) *slabLDM {
	plans := &en.plans.slabACC
	if b == Athread {
		plans = &en.plans.slabAth
	}
	l := &plans[slices.Index(slabSpecs[:], k)]
	if *l == nil {
		*l = newSlabLDM(k, en.Np)
	}
	return *l
}
