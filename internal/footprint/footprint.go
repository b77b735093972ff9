// Package footprint is the reproduction of the paper's memory-footprint
// analysis and reduction tool (§7.2): given a kernel's arrays and the
// loop axis being tiled, it computes the LDM working set, decides
// whether the kernel fits the 64 KB scratchpad, and — when it does not —
// finds the largest tiling (block size along the tiled axis) that fits,
// which is exactly the decision the paper's source-to-source tooling
// made for every one of CAM's hundreds of kernels.
//
// The execution engines in internal/exec encode their tilings by hand,
// the way the paper's Athread rewrite does; the tests cross-check those
// hand tilings against this analyzer, playing the role of the paper's
// "memory footprint analysis" pass over the refactored code.
package footprint

import (
	"fmt"
	"sort"
	"strings"

	"swcam/internal/sw"
)

// Axis tags how an array's leading extent responds to tiling.
type Axis int

const (
	// Fixed arrays (metric terms, derivative matrices) do not shrink
	// when the kernel is tiled.
	Fixed Axis = iota
	// Tiled arrays scale with the block size along the tiled loop
	// (e.g. per-level fields when tiling the vertical axis).
	Tiled
)

// Array describes one kernel buffer.
type Array struct {
	Name  string
	Elems int  // float64 elements at FULL extent of the tiled axis
	Axis  Axis // whether tiling shrinks it
	// Copies > 1 models double-buffering or in/out pairs.
	Copies int
}

// bytesAt returns the array's LDM bytes when the tiled axis is cut to
// block out of full.
func (a Array) bytesAt(block, full int) int {
	copies := a.Copies
	if copies < 1 {
		copies = 1
	}
	elems := a.Elems
	if a.Axis == Tiled {
		elems = a.Elems * block / full
	}
	return elems * 8 * copies
}

// Kernel is a kernel's footprint declaration.
type Kernel struct {
	Name   string
	Axis   string // human name of the tiled loop (e.g. "levels")
	Full   int    // full extent of the tiled axis
	Arrays []Array
}

// Report is the analyzer's verdict.
type Report struct {
	Kernel       string
	FullBytes    int  // working set without tiling
	Fits         bool // fits the LDM untiled
	Block        int  // largest block size that fits (== Full when Fits)
	TiledBytes   int  // working set at that block size
	MinBlockFail bool // even block=1 exceeds the LDM
}

// Analyze computes the working set and, if needed, the largest block
// size (a divisor of Full, preferring larger) that fits the LDM budget.
func Analyze(k Kernel) Report {
	r := Report{Kernel: k.Name, FullBytes: totalBytes(k, k.Full)}
	if r.FullBytes <= sw.LDMBytes {
		r.Fits = true
		r.Block = k.Full
		r.TiledBytes = r.FullBytes
		return r
	}
	// Try divisors of Full from largest to smallest.
	for _, b := range divisorsDescending(k.Full) {
		if tb := totalBytes(k, b); tb <= sw.LDMBytes {
			r.Block = b
			r.TiledBytes = tb
			return r
		}
	}
	r.MinBlockFail = true
	return r
}

func totalBytes(k Kernel, block int) int {
	tot := 0
	for _, a := range k.Arrays {
		tot += a.bytesAt(block, k.Full)
	}
	return tot
}

func divisorsDescending(n int) []int {
	var d []int
	for i := 1; i <= n; i++ {
		if n%i == 0 {
			d = append(d, i)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(d)))
	return d
}

// String renders the report the way the paper's tooling logged its
// decisions.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s full %6.1f KB", r.Kernel, float64(r.FullBytes)/1024)
	switch {
	case r.Fits:
		fmt.Fprintf(&b, "  fits LDM untiled")
	case r.MinBlockFail:
		fmt.Fprintf(&b, "  DOES NOT FIT even at block=1 — needs restructuring")
	default:
		fmt.Fprintf(&b, "  tile to block=%d (%.1f KB)", r.Block, float64(r.TiledBytes)/1024)
	}
	return b.String()
}

// EulerAthreadKernel declares the Algorithm-2 euler_step working set for
// the given dims: the analyzer must land on the same vertical blocking
// the engine hard-codes (nlev split over the 8 mesh rows).
func EulerAthreadKernel(np, nlev int) Kernel {
	npsq := np * np
	return Kernel{
		Name: "euler_step (athread)",
		Axis: "levels", Full: nlev,
		Arrays: []Array{
			{Name: "deriv", Elems: npsq, Axis: Fixed, Copies: 1},
			{Name: "dinv", Elems: 4 * npsq, Axis: Fixed, Copies: 1},
			{Name: "metdet", Elems: npsq, Axis: Fixed, Copies: 1},
			{Name: "u", Elems: nlev * npsq, Axis: Tiled, Copies: 1},
			{Name: "v", Elems: nlev * npsq, Axis: Tiled, Copies: 1},
			{Name: "qdp", Elems: nlev * npsq, Axis: Tiled, Copies: 1},
			{Name: "slab scratch", Elems: 5 * npsq, Axis: Fixed, Copies: 1},
		},
	}
}

// RHSAthreadKernel declares the Athread compute_and_apply_rhs working
// set: 4 current fields, 4 output tiles, the vertical scan scratch, and
// per-level slabs.
func RHSAthreadKernel(np, nlev int) Kernel {
	npsq := np * np
	return Kernel{
		Name: "compute_and_apply_rhs (athread)",
		Axis: "levels", Full: nlev,
		Arrays: []Array{
			{Name: "metric+deriv+lat+phis", Elems: 11 * npsq, Axis: Fixed, Copies: 1},
			{Name: "cur u,v,T,dp", Elems: nlev * npsq, Axis: Tiled, Copies: 4},
			{Name: "out u,v,T,dp", Elems: nlev * npsq, Axis: Tiled, Copies: 4},
			{Name: "pMid,phi,divDp,cumDiv", Elems: nlev * npsq, Axis: Tiled, Copies: 4},
			{Name: "column scratch", Elems: 2 * nlev, Axis: Tiled, Copies: 1},
			{Name: "level slabs", Elems: 12 * npsq, Axis: Fixed, Copies: 1},
		},
	}
}

// OpenACCWholeElementKernel declares what the directive approach tries
// to buffer — whole-element arrays with no tiling freedom beyond what
// the (single) collapsed loop allows. For nlev=128 CAM dimensions this
// overflows, which is why the paper's OpenACC port needed the customized
// multi-dimensional buffering extensions (§5.3).
func OpenACCWholeElementKernel(np, nlev, nfields int) Kernel {
	npsq := np * np
	return Kernel{
		Name: "whole-element copyin (openacc)",
		Axis: "levels", Full: nlev,
		Arrays: []Array{
			{Name: "fields", Elems: nlev * npsq, Axis: Tiled, Copies: nfields},
			{Name: "metric", Elems: 6 * npsq, Axis: Fixed, Copies: 1},
		},
	}
}

// RankFootprint is the host-memory bill for one rank of the distributed
// driver, the number the scaling campaign's per-rank memory budget is
// enforced against. Unlike the LDM analysis above (which is about one
// kernel's 64 KB scratchpad working set), this accounts the resident
// per-rank state: the prognostic fields plus the driver's pooled step
// scratch.
type RankFootprint struct {
	Elems        int // local elements on the rank
	StateBytes   int // prognostic dycore.State (U,V,T,DP,Qdp,Phis)
	ScratchBytes int // pooled stepScratch: 2 state copies + 4 laplacians + tracer scratch
}

// Total is the rank's resident float64 bytes.
func (f RankFootprint) Total() int { return f.StateBytes + f.ScratchBytes }

// stateFloatsPerElem counts one element's prognostic float64s: four
// level fields (U,V,T,DP), qsize tracer-mass fields, and the surface
// geopotential.
func stateFloatsPerElem(np, nlev, qsize int) int {
	npsq := np * np
	return (4+qsize)*nlev*npsq + npsq
}

// RankState bills elems local elements at the given dims. The scratch
// term mirrors core's stepScratch pool exactly: two full state copies
// (time-level staging), four per-level laplacian fields
// (hyperviscosity), and one tracer-shaped field (limiter staging).
func RankState(np, nlev, qsize, elems int) RankFootprint {
	npsq := np * np
	perState := stateFloatsPerElem(np, nlev, qsize)
	scratch := 2*perState + (4*nlev+qsize*nlev)*npsq
	return RankFootprint{
		Elems:        elems,
		StateBytes:   elems * perState * 8,
		ScratchBytes: elems * scratch * 8,
	}
}
