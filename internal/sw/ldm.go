package sw

import "fmt"

// LDMBytes is the Local Data Memory capacity of one CPE: 64 KB (§5.2).
// The LDM replaces a hardware data cache; everything a kernel touches
// must be staged into this budget explicitly. The paper's fine-grained
// redesign exists largely because of this constraint, so the simulator
// enforces it strictly: an allocation that would not fit on the hardware
// returns ErrLDMOverflow here.
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

// LDM is the user-managed 64 KB scratchpad of one CPE, modeled as a
// checked bump allocator over a real backing arena. Allocations are
// released in bulk with Reset: kernels reuse the whole scratchpad between
// phases.
type LDM struct {
	arena     []float64
	usedF64   int
	highWater int // peak bytes in use, for reporting tile pressure
}

// NewLDM returns an empty 64 KB scratchpad.
func NewLDM() *LDM {
	return &LDM{arena: make([]float64, LDMBytes/F64Bytes)}
}

// Alloc carves n float64 values out of the scratchpad. The name labels
// the buffer in overflow diagnostics. The returned slice aliases the LDM
// arena; it is valid until the next Reset.
func (l *LDM) Alloc(name string, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("sw: negative LDM allocation %q (%d)", name, n)
	}
	if (l.usedF64+n)*F64Bytes > LDMBytes {
		return nil, &ErrLDMOverflow{Name: name, Requested: n * F64Bytes, Used: l.usedF64 * F64Bytes}
	}
	buf := l.arena[l.usedF64 : l.usedF64+n : l.usedF64+n]
	l.usedF64 += n
	if b := l.usedF64 * F64Bytes; b > l.highWater {
		l.highWater = b
	}
	return buf, nil
}

// MustAlloc is Alloc for kernels whose tiling has been statically sized to
// fit; it panics on overflow, which indicates a kernel tiling bug.
func (l *LDM) MustAlloc(name string, n int) []float64 {
	buf, err := l.Alloc(name, n)
	if err != nil {
		panic(err)
	}
	return buf
}

// Reset frees all allocations.
func (l *LDM) Reset() { l.usedF64 = 0 }

// Used reports the bytes currently allocated.
func (l *LDM) Used() int { return l.usedF64 * F64Bytes }

// HighWater reports the peak bytes ever allocated, i.e. the kernel's true
// scratchpad working set.
func (l *LDM) HighWater() int { return l.highWater }

// Free reports the bytes still available.
func (l *LDM) Free() int { return LDMBytes - l.Used() }
