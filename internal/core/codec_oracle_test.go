package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"swcam/internal/dycore"
)

// The reflective v2 codec the package shipped before the in-place one:
// encoding/binary walking the header struct and every field slice. It
// is kept only here, as the oracle the hand-marshalled codec is diffed
// against byte for byte.

type reflectHeader struct {
	Magic   uint32
	Version uint32
	NElem   int64
	Np      int64
	Nlev    int64
	Qsize   int64
	Step    int64
}

var oracleCRCTable = crc32.MakeTable(crc32.Castagnoli)

func writeCheckpointReflect(w io.Writer, st *dycore.State, step int) error {
	bw := bufio.NewWriter(w)
	h := reflectHeader{
		Magic: checkpointMagic, Version: checkpointVersion,
		NElem: int64(st.NElem()), Np: int64(st.Np),
		Nlev: int64(st.Nlev), Qsize: int64(st.Qsize), Step: int64(step),
	}
	if err := binary.Write(bw, binary.LittleEndian, &h); err != nil {
		return err
	}
	crc := crc32.New(oracleCRCTable)
	body := io.MultiWriter(bw, crc)
	for _, field := range stateFields(st) {
		for _, e := range field {
			if err := binary.Write(body, binary.LittleEndian, e); err != nil {
				return err
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

func readCheckpointReflect(r io.Reader) (*dycore.State, int, error) {
	br := bufio.NewReader(r)
	var h reflectHeader
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return nil, 0, err
	}
	if h.Magic != checkpointMagic || h.Version != checkpointVersion {
		return nil, 0, fmt.Errorf("oracle: magic %#x version %d", h.Magic, h.Version)
	}
	st := dycore.NewState(int(h.NElem), int(h.Np), int(h.Nlev), int(h.Qsize))
	crc := crc32.New(oracleCRCTable)
	body := io.TeeReader(br, crc)
	for _, field := range stateFields(st) {
		for _, e := range field {
			if err := binary.Read(body, binary.LittleEndian, e); err != nil {
				return nil, 0, err
			}
		}
	}
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return nil, 0, err
	}
	if got := crc.Sum32(); got != want {
		return nil, 0, fmt.Errorf("oracle: crc %#x, stored %#x", got, want)
	}
	return st, int(h.Step), nil
}

// repackReflect frames checkpoint bytes the way the old buddy encoder
// did: a length word, then the bytes as little-endian words, zero-padded.
func repackReflect(b []byte) []float64 {
	words := (len(b) + 7) / 8
	padded := make([]byte, words*8)
	copy(padded, b)
	out := make([]float64, 1+words)
	out[0] = math.Float64frombits(uint64(len(b)))
	for i := 0; i < words; i++ {
		out[1+i] = math.Float64frombits(binary.LittleEndian.Uint64(padded[i*8:]))
	}
	return out
}

func flipWordBit(p []float64, word int, bit uint) []float64 {
	out := append([]float64(nil), p...)
	out[word] = math.Float64frombits(math.Float64bits(out[word]) ^ 1<<bit)
	return out
}

// TestCheckpointCodecMatchesReflectOracle pins the in-place codec to
// the reflective one it replaced: same bytes on disk, same words on the
// wire, files interchangeable in both directions, and every single-bit
// flip of a payload — length word, header words, body, CRC word with
// its padding — refused.
func TestCheckpointCodecMatchesReflectOracle(t *testing.T) {
	shapes := []struct{ nelem, np, nlev, qsize int }{
		{2, 4, 3, 0}, // empty Qdp slices
		{2, 4, 3, 3},
		{3, 4, 8, 1},
		{1, 3, 1, 2}, // odd: one element, one level, np 3
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("nelem%d-np%d-nlev%d-q%d", sh.nelem, sh.np, sh.nlev, sh.qsize), func(t *testing.T) {
			st := dycore.NewState(sh.nelem, sh.np, sh.nlev, sh.qsize)
			fillStateFields(t, st, int64(sh.nelem*1000+sh.nlev*10+sh.qsize))
			st.U[0][0] = math.Copysign(0, -1)
			st.Phis[0][1] = math.Float64frombits(0x7ff8000000000123) // a NaN with a payload
			const step = 1234567

			var oracle, got bytes.Buffer
			if err := writeCheckpointReflect(&oracle, st, step); err != nil {
				t.Fatal(err)
			}
			if err := WriteCheckpoint(&got, st, step); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), oracle.Bytes()) {
				t.Fatalf("WriteCheckpoint wrote %d bytes that differ from the oracle's %d", got.Len(), oracle.Len())
			}
			enc, err := EncodeStateBytes(st, step)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, oracle.Bytes()) || cap(enc) != len(enc) {
				t.Fatalf("EncodeStateBytes: %d bytes in a %d-byte buffer, equal to the oracle: %v",
					len(enc), cap(enc), bytes.Equal(enc, oracle.Bytes()))
			}

			payload, err := EncodeRankSnapshot(st, step)
			if err != nil {
				t.Fatal(err)
			}
			want := repackReflect(oracle.Bytes())
			if len(payload) != len(want) {
				t.Fatalf("EncodeRankSnapshot: %d words, oracle repack %d", len(payload), len(want))
			}
			for i := range want {
				if math.Float64bits(payload[i]) != math.Float64bits(want[i]) {
					t.Fatalf("EncodeRankSnapshot word %d = %#x, oracle repack %#x",
						i, math.Float64bits(payload[i]), math.Float64bits(want[i]))
				}
			}

			// Files cross over in both directions.
			dir := t.TempDir()
			old := filepath.Join(dir, "oracle.ck")
			if err := os.WriteFile(old, oracle.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			back, gotStep, err := LoadCheckpoint(old)
			if err != nil || gotStep != step {
				t.Fatalf("oracle-written file through LoadCheckpoint: step %d, err %v", gotStep, err)
			}
			diffStateFields(t, back, st, "LoadCheckpoint(oracle file)")
			cur := filepath.Join(dir, "current.ck")
			if err := SaveCheckpoint(cur, st, step); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(cur)
			if err != nil {
				t.Fatal(err)
			}
			back, gotStep, err = readCheckpointReflect(f)
			f.Close()
			if err != nil || gotStep != step {
				t.Fatalf("SaveCheckpoint file through the oracle reader: step %d, err %v", gotStep, err)
			}
			diffStateFields(t, back, st, "oracle reader(SaveCheckpoint file)")
			dec, gotStep, err := DecodeRankSnapshot(want)
			if err != nil || gotStep != step {
				t.Fatalf("oracle repack through DecodeRankSnapshot: step %d, err %v", gotStep, err)
			}
			diffStateFields(t, dec, st, "DecodeRankSnapshot(oracle repack)")

			// Every single-bit flip, every word. The step word sits outside
			// the CRC by format: its flips decode, to a step the caller's
			// step comparison refuses.
			const stepWord = headerWords
			for word := range payload {
				for bit := uint(0); bit < 64; bit++ {
					bad := flipWordBit(payload, word, bit)
					verr := VerifyRankSnapshot(bad)
					_, badStep, derr := DecodeRankSnapshot(bad)
					if (verr == nil) != (derr == nil) {
						t.Fatalf("word %d bit %d: verify says %v, decode says %v", word, bit, verr, derr)
					}
					if word == stepWord {
						if derr == nil && badStep == step {
							t.Fatalf("step word bit %d: flip went unnoticed", bit)
						}
						continue
					}
					if !errors.Is(derr, ErrBuddySnapshot) {
						t.Fatalf("word %d of %d, bit %d: flipped payload decoded (err %v)", word, len(payload), bit, derr)
					}
					if word > stepWord && !errors.Is(derr, ErrChecksum) {
						t.Fatalf("word %d bit %d: body/CRC flip not classified as a checksum failure: %v", word, bit, derr)
					}
				}
			}
		})
	}
}

// Strict framing on the untrusted surface: a framed length other than
// the one the header's dimensions imply is refused, whether the tail is
// whole extra words or bytes counted into the CRC word's padding. (The
// byte reader keeps its stream semantics: it stops at the trailer.)
func TestRankSnapshotRejectsTrailingWords(t *testing.T) {
	st := makeSeedState()
	payload, err := EncodeRankSnapshot(st, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := math.Float64bits(payload[0])
	for extra := uint64(1); extra <= 4; extra++ { // same word count, longer claim
		bad := append([]float64(nil), payload...)
		bad[0] = math.Float64frombits(n + extra)
		if _, _, err := DecodeRankSnapshot(bad); !errors.Is(err, ErrBuddySnapshot) {
			t.Errorf("framed length %d+%d decoded: %v", n, extra, err)
		}
	}
	for _, tail := range [][]float64{{0}, {1.5}, {0, 0, 0}} {
		bad := append(append([]float64(nil), payload...), tail...)
		bad[0] = math.Float64frombits(n + 8*uint64(len(tail)))
		if err := VerifyRankSnapshot(bad); !errors.Is(err, ErrBuddySnapshot) {
			t.Errorf("%d trailing words verified: %v", len(tail), err)
		}
		if _, _, err := DecodeRankSnapshot(bad); !errors.Is(err, ErrBuddySnapshot) {
			t.Errorf("%d trailing words decoded: %v", len(tail), err)
		}
	}
	// The stream reader still stops at the trailer.
	b, err := EncodeStateBytes(st, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(append(b, "next record"...))
	if _, _, err := ReadCheckpoint(r); err != nil {
		t.Fatalf("ReadCheckpoint with bytes after the trailer: %v", err)
	}
	if rest, _ := io.ReadAll(r); string(rest) != "next record" {
		t.Errorf("ReadCheckpoint left %q unread, want the bytes after the trailer", rest)
	}
}
