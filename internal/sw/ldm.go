package sw

import "fmt"

// LDMBytes is the Local Data Memory capacity of one CPE: 64 KB (§5.2).
// The LDM replaces a hardware data cache; everything a kernel touches
// must be staged into this budget explicitly. The paper's fine-grained
// redesign exists largely because of this constraint, so the simulator
// enforces it strictly: a layout that would not fit on the hardware
// panics with ErrLDMOverflow here.
const LDMBytes = 64 * 1024

// F64Bytes is the size of one double-precision value.
const F64Bytes = 8

// ErrLDMOverflow reports that a kernel's working set exceeded the 64 KB
// Local Data Memory of a CPE.
type ErrLDMOverflow struct {
	Name      string // allocation label
	Requested int    // bytes requested
	Used      int    // bytes already allocated
}

func (e *ErrLDMOverflow) Error() string {
	return fmt.Sprintf("sw: LDM overflow allocating %q: %d B requested, %d B in use, %d B capacity",
		e.Name, e.Requested, e.Used, LDMBytes)
}

// mustFit panics unless n more values fit after used: with
// *ErrLDMOverflow when they exceed the capacity.
func mustFit(name string, used, n int) {
	if n < 0 {
		panic(fmt.Errorf("sw: negative LDM allocation %q (%d)", name, n))
	}
	if (used+n)*F64Bytes > LDMBytes {
		panic(&ErrLDMOverflow{Name: name, Requested: n * F64Bytes, Used: used * F64Bytes})
	}
}

// LDM is the user-managed 64 KB scratchpad of one CPE over a real
// backing arena. Every launch starts with it empty (Spawn); the bytes in
// use when the CPE's body returns are its working set, recorded in
// PerfCounter.LDMPeak. A kernel lays it out from a fixed LDMPlan (Load
// and View); an ad-hoc body carves buffers one by one with MustAlloc.
type LDM struct {
	arena []float64
	used  int // values in use in this launch
}

// NewLDM returns an empty 64 KB scratchpad.
func NewLDM() *LDM {
	return &LDM{arena: make([]float64, LDMBytes/F64Bytes)}
}

// MustAlloc carves n float64 values out of the scratchpad for the rest
// of the launch. The name labels the buffer in the overflow panic. The
// returned slice aliases the arena and is capped, so an append cannot
// spill into the next buffer.
func (l *LDM) MustAlloc(name string, n int) []float64 {
	mustFit(name, l.used, n)
	buf := l.arena[l.used : l.used+n : l.used+n]
	l.used += n
	return buf
}

// LDMPlan is a kernel's LDM layout, computed once: its buffers laid end
// to end in the order they are added, as an Athread kernel's LDM arrays
// sit at offsets fixed before its first athread_spawn. The capacity
// check and the buffer names belong to building the plan; a launch lays
// the whole plan down with one Load and takes each buffer with View.
type LDMPlan struct{ n int }

// LDMBuf is one buffer of an LDMPlan: its place in every CPE's LDM.
type LDMBuf struct{ off, end int }

// Add appends a buffer of n values to the plan and returns its place.
// A buffer that does not fit panics with *ErrLDMOverflow naming it.
func (p *LDMPlan) Add(name string, n int) LDMBuf {
	mustFit(name, p.n, n)
	b := LDMBuf{p.n, p.n + n}
	p.n += n
	return b
}

// Load lays p over this launch's scratchpad, which must still be empty:
// p's buffers are in use for the rest of the launch, and p's size is
// the CPE's working set.
func (l *LDM) Load(p *LDMPlan) { l.used = p.n }

// View returns buffer b of the loaded plan. Like MustAlloc's buffers
// it is capped at its own length.
func (l *LDM) View(b LDMBuf) []float64 { return l.arena[b.off:b.end:b.end] }
