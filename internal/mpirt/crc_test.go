package mpirt

import (
	"bytes"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// byteLoopCRC is the oracle: the byte-at-a-time table loop payloadCRC
// was before it moved onto the hardware CRC, folding each value's
// little-endian bytes into crc.
func byteLoopCRC(crc uint32, data []float64) uint32 {
	tab := crc32.MakeTable(crc32.Castagnoli)
	crc = ^crc
	for _, v := range data {
		bits := math.Float64bits(v)
		for k := 0; k < 64; k += 8 {
			crc = tab[byte(crc)^byte(bits>>k)] ^ (crc >> 8)
		}
	}
	return ^crc
}

// TestPayloadCRCMatchesByteLoop holds the in-place byte-view CRC, and the
// staged copy a big-endian host falls back to, to the wire value of the
// old loop: at every length 0..1025 (across the staged path's 512-value
// chunk edge), on sub-slices starting at every offset of one backing
// array, with NaN payloads and signed zeros among the bits, and folded
// across several slices the way a seal folds fields.
func TestPayloadCRCMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	back := make([]float64, 1025+8)
	for i := range back {
		back[i] = math.Float64frombits(rng.Uint64()) // any bits: NaN payloads, denormals, Inf
	}
	back[3], back[4], back[5] = math.NaN(), math.Copysign(0, -1), math.Float64frombits(0x7ff0000000000001)
	if got := payloadCRC(nil); got != 0 {
		t.Fatalf("empty payload hashes to %#x, want 0", got)
	}
	for n := 0; n <= 1025; n++ {
		off := n % 8
		data := back[off : off+n]
		want := byteLoopCRC(0, data)
		if got := payloadCRC(data); got != want {
			t.Fatalf("len %d offset %d: payloadCRC %#08x, byte loop %#08x", n, off, got, want)
		}
		if got := crcFloatsStaged(0, data); got != want {
			t.Fatalf("len %d offset %d: staged CRC %#08x, byte loop %#08x", n, off, got, want)
		}
	}
	a, b, c := back[1:130], back[130:130], back[131:700]
	want := byteLoopCRC(byteLoopCRC(0, a), c)
	if got := CRCFloats(CRCFloats(CRCFloats(0, a), b), c); got != want {
		t.Fatalf("folded CRC %#08x, byte loop %#08x", got, want)
	}
	if got := crcFloatsStaged(crcFloatsStaged(0, a), c); got != want {
		t.Fatalf("folded staged CRC %#08x, byte loop %#08x", got, want)
	}
}

// TestWireBytesStagedMatchesView holds the codec's big-endian fallback
// to the in-place view on the host that can check it: the staged bytes
// are the values' own little-endian memory, decoding them restores every
// bit, and the stage is reused once large enough.
func TestWireBytesStagedMatchesView(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("the in-place view is the wire format only on a little-endian host")
	}
	rng := rand.New(rand.NewSource(11))
	var stage []byte
	for _, n := range []int{0, 1, 7, 128, 129, 64} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(rng.Uint64())
		}
		staged := wireBytesStaged(vals, &stage)
		if view := WireBytes(vals, nil); !bytes.Equal(staged, view) {
			t.Fatalf("%d values: staged bytes differ from the in-place view", n)
		}
		back := make([]float64, n)
		fromWireBytesStaged(back, staged)
		for i := range vals {
			if math.Float64bits(back[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%d values: [%d] decoded to %#x, want %#x", n, i, math.Float64bits(back[i]), math.Float64bits(vals[i]))
			}
		}
	}
	if cap(stage) != 8*129 {
		t.Errorf("stage grew to %d bytes, want the largest request (%d) and no regrowth after", cap(stage), 8*129)
	}
}
