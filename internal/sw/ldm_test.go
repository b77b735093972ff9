package sw

import (
	"errors"
	"strings"
	"testing"
)

// mustPanic runs f and returns what it panicked with.
func mustPanic(t *testing.T, f func()) (p any) {
	t.Helper()
	defer func() {
		if p = recover(); p == nil {
			t.Fatal("did not panic")
		}
	}()
	f()
	return nil
}

func TestLDMCapacity(t *testing.T) {
	// Exactly the capacity fits: 8192 float64 = 64 KB, as one allocation
	// and as a plan.
	l := NewLDM()
	if buf := l.MustAlloc("full", LDMBytes/F64Bytes); len(buf) != LDMBytes/F64Bytes {
		t.Fatalf("len = %d", len(buf))
	}
	mustPanic(t, func() { l.MustAlloc("one more", 1) })

	var p LDMPlan
	b := p.Add("full", LDMBytes/F64Bytes)
	l = NewLDM()
	l.Load(&p)
	if v := l.View(b); len(v) != LDMBytes/F64Bytes {
		t.Fatalf("view len = %d", len(v))
	}
	mustPanic(t, func() { p.Add("one more", 1) })
}

func TestLDMOverflowError(t *testing.T) {
	check := func(p any) {
		t.Helper()
		err, _ := p.(error)
		var ov *ErrLDMOverflow
		if !errors.As(err, &ov) {
			t.Fatalf("want ErrLDMOverflow, got %v", p)
		}
		if ov.Name != "b" || ov.Requested != 5000*F64Bytes || ov.Used != 4096*F64Bytes {
			t.Fatalf("overflow detail wrong: %+v", ov)
		}
		if !strings.Contains(ov.Error(), `"b"`) {
			t.Fatalf("error %q does not name the buffer", ov.Error())
		}
	}
	l := NewLDM()
	l.MustAlloc("a", 4096) // 32 KB
	check(mustPanic(t, func() { l.MustAlloc("b", 5000) }))

	var p LDMPlan
	p.Add("a", 4096)
	check(mustPanic(t, func() { p.Add("b", 5000) }))
}

// TestLDMHighWater: a CPE's recorded working set is its largest launch
// since the counters were last reset, not its lifetime high-water mark.
func TestLDMHighWater(t *testing.T) {
	cg := NewCoreGroup(0)
	cg.Spawn(func(c *CPE) {
		c.LDM.MustAlloc("a", 1000)
		c.LDM.MustAlloc("b", 2000)
	})
	cg.Spawn(func(c *CPE) { c.LDM.MustAlloc("c", 500) })
	if _, max := cg.Counters(); max.LDMPeak != 3000*F64Bytes {
		t.Fatalf("peak over two launches = %d, want %d", max.LDMPeak, 3000*F64Bytes)
	}
	cg.ResetCounters()
	cg.Spawn(func(c *CPE) { c.LDM.MustAlloc("c", 500) })
	if _, max := cg.Counters(); max.LDMPeak != 500*F64Bytes {
		t.Fatalf("peak of one launch after reset = %d, want %d", max.LDMPeak, 500*F64Bytes)
	}
	var p LDMPlan
	p.Add("x", 100)
	p.Add("y", 28)
	cg.ResetCounters()
	cg.Spawn(func(c *CPE) { c.LDM.Load(&p) })
	if _, max := cg.Counters(); max.LDMPeak != 128*F64Bytes {
		t.Fatalf("peak of a planned launch = %d, want the plan's %d", max.LDMPeak, 128*F64Bytes)
	}
}

func TestLDMNegativeAlloc(t *testing.T) {
	mustPanic(t, func() { NewLDM().MustAlloc("neg", -1) })
	var p LDMPlan
	mustPanic(t, func() { p.Add("neg", -1) })
}

func TestLDMBuffersDisjoint(t *testing.T) {
	l := NewLDM()
	a := l.MustAlloc("a", 16)
	b := l.MustAlloc("b", 16)
	var p LDMPlan
	pa, pb := p.Add("pa", 16), p.Add("pb", 16)
	l2 := NewLDM()
	l2.Load(&p)
	for _, ab := range [][2][]float64{{a, b}, {l2.View(pa), l2.View(pb)}} {
		a, b := ab[0], ab[1]
		for i := range a {
			a[i] = 1
		}
		for i := range b {
			b[i] = 2
		}
		for i := range a {
			if a[i] != 1 {
				t.Fatal("buffers overlap")
			}
		}
		// Capacity guard on append: slices are capped so appends cannot
		// bleed into the next buffer.
		_ = append(a, 99)
		if b[0] != 2 {
			t.Fatal("append into a overwrote b")
		}
	}
}

// TestLDMPlanMatchesAllocOrder: a plan lays its buffers where the same
// sequence of MustAllocs carves them.
func TestLDMPlanMatchesAllocOrder(t *testing.T) {
	sizes := []int{16, 64, 64, 16, 128, 3}
	var p LDMPlan
	bufs := make([]LDMBuf, len(sizes))
	for i, n := range sizes {
		bufs[i] = p.Add("b", n)
	}
	planned, carved := NewLDM(), NewLDM()
	planned.Load(&p)
	off := 0
	for i, n := range sizes {
		v := planned.View(bufs[i])
		carved.MustAlloc("b", n)
		if len(v) != n || cap(v) != n || &v[0] != &planned.arena[off] {
			t.Fatalf("buffer %d: view not at the carved offset %d", i, off)
		}
		off += n
	}
	if planned.used != carved.used {
		t.Fatalf("plan uses %d values, the allocations %d", planned.used, carved.used)
	}
}
