package exec

import (
	"runtime"
	"testing"

	"swcam/internal/mesh"
	"swcam/internal/sw"
)

// The adaptive heuristic: workers scale with MeshDim-aligned blocks,
// floor at the serial path, ceiling at the explicit cap.
func TestAdaptiveWorkersTable(t *testing.T) {
	bs := sw.MeshDim * minBlocksPerWorker // elements per worker at the floor
	cases := []struct {
		nelems, max, want int
	}{
		{0, 8, 1},         // empty rank: serial
		{1, 8, 1},         // one element: serial
		{bs - 1, 8, 1},    // just under one worker's quota: serial
		{bs, 8, 1},        // exactly one quota: still serial (w = blocks/quota = 1)
		{2 * bs, 8, 2},    // two quotas: two workers
		{4 * bs, 8, 4},    // scales linearly while under the cap
		{100 * bs, 8, 8},  // capped by max
		{100 * bs, 3, 3},  // arbitrary cap respected
		{2 * bs, 1, 1},    // cap of 1 forces serial regardless of size
		{3*bs + 17, 8, 3}, // partial blocks round the element count up, workers down
	}
	for _, tc := range cases {
		if got := AdaptiveWorkers(tc.nelems, tc.max); got != tc.want {
			t.Errorf("AdaptiveWorkers(%d, %d) = %d, want %d", tc.nelems, tc.max, got, tc.want)
		}
	}
	// max <= 0 defers to the machine default but never exceeds it.
	if got := AdaptiveWorkers(1000*bs, 0); got != DefaultDynWorkers() {
		t.Errorf("AdaptiveWorkers(huge, 0) = %d, want DefaultDynWorkers %d", got, DefaultDynWorkers())
	}
	// The machine default follows GOMAXPROCS, not the host's CPU count:
	// a process pinned to one P resolves "auto" to the serial path.
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if got := DefaultDynWorkers(); got != 1 {
		t.Errorf("DefaultDynWorkers under GOMAXPROCS(1) = %d, want 1", got)
	}
	if got := AdaptiveWorkers(1000*bs, 0); got != 1 {
		t.Errorf("AdaptiveWorkers(huge, 0) under GOMAXPROCS(1) = %d, want 1", got)
	}
}

// SetWorkersAuto resolves against the engine's own element count: a
// tiny rank lands on the inline serial path (1 worker, 1 tile), and the
// resolved count always matches the heuristic.
func TestSetWorkersAutoResolution(t *testing.T) {
	m := mesh.New(2, 4) // 24 elements
	elems := make([]int, m.NElems())
	for i := range elems {
		elems[i] = i
	}
	en := NewEngine(m, elems, 8, 1)
	en.SetWorkersAuto()
	want := AdaptiveWorkers(len(elems), 0)
	if en.Workers() != want {
		t.Fatalf("auto workers = %d, want %d", en.Workers(), want)
	}
	if want == 1 && en.Tiles() != 1 {
		t.Fatalf("serial downshift should coarsen to one tile, got %d", en.Tiles())
	}

	// A subset of the rank small enough for the serial floor.
	small := NewEngine(m, elems[:4], 8, 1)
	small.SetWorkersAuto()
	if small.Workers() != 1 {
		t.Fatalf("4-element rank resolved to %d workers, want 1", small.Workers())
	}
}
