package sw

import (
	"errors"
	"testing"
)

func TestLDMCapacity(t *testing.T) {
	l := NewLDM()
	if l.Free() != LDMBytes {
		t.Fatalf("fresh LDM free = %d, want %d", l.Free(), LDMBytes)
	}
	// Allocate exactly the capacity: 8192 float64 = 64 KB.
	buf, err := l.Alloc("full", LDMBytes/F64Bytes)
	if err != nil {
		t.Fatalf("full allocation failed: %v", err)
	}
	if len(buf) != LDMBytes/F64Bytes {
		t.Fatalf("len = %d", len(buf))
	}
	if l.Free() != 0 {
		t.Fatalf("free after full alloc = %d", l.Free())
	}
	if _, err := l.Alloc("one more", 1); err == nil {
		t.Fatal("overflow allocation succeeded")
	}
}

func TestLDMOverflowError(t *testing.T) {
	l := NewLDM()
	l.MustAlloc("a", 4096) // 32 KB
	_, err := l.Alloc("b", 5000)
	var ov *ErrLDMOverflow
	if !errors.As(err, &ov) {
		t.Fatalf("want ErrLDMOverflow, got %v", err)
	}
	if ov.Name != "b" || ov.Requested != 5000*F64Bytes || ov.Used != 4096*F64Bytes {
		t.Fatalf("overflow detail wrong: %+v", ov)
	}
	if ov.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestLDMHighWater(t *testing.T) {
	l := NewLDM()
	l.MustAlloc("a", 1000)
	l.MustAlloc("b", 2000)
	l.Reset()
	l.MustAlloc("c", 500)
	if hw := l.HighWater(); hw != 3000*F64Bytes {
		t.Fatalf("high water = %d, want %d", hw, 3000*F64Bytes)
	}
}

func TestLDMNegativeAlloc(t *testing.T) {
	l := NewLDM()
	if _, err := l.Alloc("neg", -1); err == nil {
		t.Fatal("negative allocation succeeded")
	}
}

func TestLDMBuffersDisjoint(t *testing.T) {
	l := NewLDM()
	a := l.MustAlloc("a", 16)
	b := l.MustAlloc("b", 16)
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
	// Capacity guard on append: slices are capped so appends cannot bleed
	// into the next buffer.
	a2 := append(a, 99)
	if b[0] != 2 {
		t.Fatal("append into a overwrote b")
	}
	_ = a2
}
