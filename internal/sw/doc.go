// Package sw is a functional simulator of the SW26010 many-core processor
// that powers the Sunway TaihuLight supercomputer, as described in §5 of
// Fu et al., "Redesigning CAM-SE for Peta-Scale Climate Modeling
// Performance and Ultra-High Resolution on Sunway TaihuLight" (SC'17).
//
// The SW26010 groups its 260 cores into 4 core groups (CGs). Each CG has
// one management processing element (MPE), an 8x8 mesh of computing
// processing elements (CPEs), and a memory controller. A CPE has no
// coherent data cache; instead it owns a 64 KB user-managed scratchpad
// (the Local Data Memory, LDM) and moves data to and from main memory
// with explicit DMA. CPEs in the same row or column of the mesh exchange
// data directly through low-latency register communication. Each CPE has
// a 256-bit vector unit (4 double-precision lanes) with shuffle support.
//
// This package models all of those mechanisms functionally:
//
//   - LDM: a checked bump allocator over a real 64 KB arena. Kernels that
//     would not fit on the hardware fail here too.
//   - DMA: explicit get/put between main-memory slices and LDM buffers,
//     with byte and operation accounting.
//   - RegComm: depth-4 receive buffers between CPEs sharing a row or
//     column, with message accounting and back-pressure, used for the
//     paper's scan (§7.4) and transpose (§7.5) algorithms, which are
//     provided as reusable primitives.
//   - Spawn: the athread_spawn/athread_join launch. The 64 CPE bodies run
//     as resident coroutines, one at a time, on a schedule that is a
//     function of the kernel alone: a CPE that would block on register
//     communication hands control to the peer it waits on. One running
//     CPE per core group is what lets every other mechanism here be
//     plain memory; launches on distinct core groups run in parallel.
//     A fault or a register communication deadlock aborts the launch
//     and is re-raised on the caller. See spawn.go.
//   - Vec4: a 4-lane double-precision vector value with the shuffle
//     instruction of §7.5.
//   - PerfCounter: per-CPE flop, DMA, and register-communication counters
//     that feed the roofline performance model in internal/perf.
//
// The simulator is functional, not cycle-accurate: kernels compute real
// results (the dycore validates its fields against a serial reference),
// while time is reconstructed from the counters by internal/perf using
// the published SW26010 rates. This is the substitution that makes a
// hardware-bound Gordon Bell paper reproducible off-hardware: code paths,
// capacity limits, and data-movement volumes are real; seconds are modeled.
package sw
