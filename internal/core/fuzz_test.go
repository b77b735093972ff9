package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"swcam/internal/dycore"
)

// FuzzReadCheckpoint: the checkpoint reader must reject arbitrary bytes
// with an error, never panic or over-allocate.
func FuzzReadCheckpoint(f *testing.F) {
	// Seed with a valid checkpoint and a few corruptions of it.
	st := makeSeedState()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, st, 3); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes() // v2: header + fields + CRC
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated v2 body
	f.Add(valid[:len(valid)-2]) // truncated mid-CRC
	f.Add([]byte("garbage"))
	corrupted := append([]byte(nil), valid...)
	corrupted[4] ^= 0xFF // dims
	f.Add(corrupted)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01 // bit-flipped v2 field data
	f.Add(flipped)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xFF // bit-flipped stored CRC
	f.Add(badCRC)
	v1 := valid[:len(valid)-4] // strip the CRC trailer...
	v1 = append([]byte(nil), v1...)
	v1[4] = 1 // ...and claim version 1: a legacy file, must be rejected
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Guard against absurd allocations: the header's dims are
		// validated before field reads, so any panic is a bug.
		got, _, err := ReadCheckpoint(bytes.NewReader(data))
		if err == nil && got == nil {
			t.Fatal("nil state with nil error")
		}
		// Only the CRC-trailed format may ever be accepted.
		if err == nil && binary.LittleEndian.Uint32(data[4:8]) != checkpointVersion {
			t.Fatalf("accepted a version-%d checkpoint", binary.LittleEndian.Uint32(data[4:8]))
		}
	})
}

// FuzzReadHistory: same contract for the history reader.
func FuzzReadHistory(f *testing.F) {
	f.Add([]byte("junk"))
	f.Add(make([]byte, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _ = nlonNlatFrames(data)
	})
}

func nlonNlatFrames(data []byte) (int, int, []HistoryFrame, error) {
	return ReadHistory(bytes.NewReader(data))
}

func makeSeedState() *dycore.State {
	st := dycore.NewState(2, 4, 4, 1)
	st.U[0][0] = 1.5
	return st
}

// payloadToBytes flattens a buddy-snapshot float64 payload to wire
// bytes (little-endian words) for the byte-oriented fuzz corpus.
func payloadToBytes(p []float64) []byte {
	out := make([]byte, len(p)*8)
	for i, v := range p {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// payloadFromBytes is the inverse: 8-byte little-endian chunks become
// payload words (a trailing partial chunk is dropped, as a transport
// delivering whole datatype elements would).
func payloadFromBytes(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

// buddySnapshotSeeds generates the seed payloads shared by
// FuzzDecodeRankSnapshot and the checked-in corpus: a valid snapshot
// plus the corruptions the localized-recovery rung must survive.
func buddySnapshotSeeds(fatal func(...any)) map[string][]byte {
	enc, err := EncodeRankSnapshot(makeSeedState(), 3)
	if err != nil {
		fatal(err)
	}
	valid := payloadToBytes(enc)

	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-9] ^= 0x01 // flip a checkpoint byte, CRC now stale

	corruptDims := append([]byte(nil), valid...)
	corruptDims[16] ^= 0xFF // NElem's low byte inside the framed header

	badFraming := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(badFraming[0:], 1<<40) // absurd framed length

	// Targeted single-byte flips at each structural offset of the framed
	// checkpoint — the exact damage a flipCheckpoint/flipBuddy fault
	// injects. Byte 0 of the checkpoint sits at offset 8, after the
	// framing length word; the header is Magic(4) Version(4) then five
	// int64 dims, so Step starts at checkpoint offset 40.
	flipMagic := append([]byte(nil), valid...)
	flipMagic[8] ^= 0x01
	flipVersion := append([]byte(nil), valid...)
	flipVersion[12] ^= 0x04 // version 2 -> 6: unsupported, must be rejected
	flipStep := append([]byte(nil), valid...)
	flipStep[8+40] ^= 0x02 // step is header metadata outside the CRC
	flipPayload := append([]byte(nil), valid...)
	flipPayload[8+48+(len(valid)-8-48-4)/2] ^= 0x80 // sign bit mid-field
	n := binary.LittleEndian.Uint64(valid[0:8])     // framed checkpoint byte length
	flipCRC := append([]byte(nil), valid...)
	flipCRC[8+int(n)-1] ^= 0x01 // last byte of the CRC trailer itself
	// One word past what the dimensions imply, framed to match: a tail no
	// CRC covers, which the strict framing check must refuse.
	trailing := append(append([]byte(nil), valid...), 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0)
	binary.LittleEndian.PutUint64(trailing[0:], n+8)

	return map[string][]byte{
		"seed-valid":        valid,
		"seed-truncated":    valid[:len(valid)/2],
		"seed-length-only":  valid[:8],
		"seed-garbage":      []byte("garbage buddy payload"),
		"seed-bad-crc":      badCRC,
		"seed-corrupt-dims": corruptDims,
		"seed-bad-framing":  badFraming,
		"seed-flip-magic":   flipMagic,
		"seed-flip-version": flipVersion,
		"seed-flip-step":    flipStep,
		"seed-flip-payload": flipPayload,
		"seed-flip-crc":     flipCRC,

		"seed-trailing-words": trailing,
	}
}

// FuzzDecodeRankSnapshot: the buddy-snapshot wire decoder is the
// untrusted surface of localized recovery (the payload survived in a
// peer's memory across a failure). It must reject arbitrary payloads
// with an error wrapping ErrBuddySnapshot — never panic, never
// over-allocate, never return a state it cannot vouch for.
func FuzzDecodeRankSnapshot(f *testing.F) {
	for _, seed := range buddySnapshotSeeds(f.Fatal) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, _, err := DecodeRankSnapshot(payloadFromBytes(data))
		if err == nil && st == nil {
			t.Fatal("nil state with nil error")
		}
		if err != nil && !errors.Is(err, ErrBuddySnapshot) {
			t.Fatalf("decode failure not classified as ErrBuddySnapshot: %v", err)
		}
	})
}
