package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"swcam/internal/dycore"
	"swcam/internal/mpirt"
)

// Checkpoint I/O: the paper's performance numbers are for the "whole
// application with I/O", and any production model needs restart files.
// The format is a fixed little-endian header plus the raw field arrays,
// exactly restorable (bit-for-bit restart, the climate-model
// requirement).
//
// The format (version 2) is header + fields + CRC32-C of all field
// bytes, so a truncated or bit-flipped restart file is rejected instead
// of silently seeding a run with corrupt initial conditions. Any other
// version is rejected: an unverifiable restart file has no place beside
// the SDC defense.
//
// The header is 48 bytes and every value 8, so the format is a sequence
// of little-endian 64-bit words closed by a 4-byte CRC: word 0 carries
// the magic (low half) and version (high half), words 1-5 NElem, Np,
// Nlev, Qsize and Step, and every later word is a field value's
// IEEE-754 bit pattern. Both flavours of the codec work on that view —
// the byte stream here, the float64 wire payload in buddy.go — through
// one header type; neither reflects, and the field values move as
// whole slices (mpirt.WireBytes: in place on a little-endian host).
//
// SaveCheckpoint additionally fsyncs before the atomic rename: a crash
// between rename and writeback must not leave a valid-looking name on
// top of unwritten data.

const (
	checkpointMagic   = 0x53574341 // "SWCA"
	checkpointVersion = 2

	headerWords = 6 // magic|version, NElem, Np, Nlev, Qsize, Step
	headerBytes = 8 * headerWords
	crcBytes    = 4
)

// ErrChecksum reports a v2 checkpoint whose payload does not match its
// stored CRC (torn write, bit rot, truncated-then-padded file).
var ErrChecksum = errors.New("core: checkpoint payload checksum mismatch")

// checkpointHeader is the decoded v2 header; magic and version are
// constants of the format, supplied by words and checked by parseHeader.
type checkpointHeader struct {
	NElem, Np, Nlev, Qsize, Step int64
}

func headerOf(st *dycore.State, step int) checkpointHeader {
	return checkpointHeader{
		NElem: int64(st.NElem()), Np: int64(st.Np),
		Nlev: int64(st.Nlev), Qsize: int64(st.Qsize), Step: int64(step),
	}
}

// words returns the header as the six 64-bit words it occupies.
func (h checkpointHeader) words() [headerWords]uint64 {
	return [headerWords]uint64{
		checkpointMagic | checkpointVersion<<32,
		uint64(h.NElem), uint64(h.Np), uint64(h.Nlev), uint64(h.Qsize), uint64(h.Step),
	}
}

// parseHeader checks magic, version and every dimension bound of a
// header given as its six words, before anything is sized from it.
func parseHeader(w [headerWords]uint64) (checkpointHeader, error) {
	if magic := uint32(w[0]); magic != checkpointMagic {
		return checkpointHeader{}, fmt.Errorf("core: not a checkpoint (magic %#x)", magic)
	}
	if version := uint32(w[0] >> 32); version != checkpointVersion {
		return checkpointHeader{}, fmt.Errorf("core: checkpoint version %d unsupported", version)
	}
	h := checkpointHeader{int64(w[1]), int64(w[2]), int64(w[3]), int64(w[4]), int64(w[5])}
	// Bound every dimension before allocating: a corrupt or hostile
	// header must produce an error, not an enormous allocation. The caps
	// cover any run this library can actually perform (ne4096 worth of
	// elements on one rank would not fit in memory anyway).
	if h.NElem <= 0 || h.NElem > 1<<26 ||
		h.Np < 2 || h.Np > 64 ||
		h.Nlev < 1 || h.Nlev > 4096 ||
		h.Qsize < 0 || h.Qsize > 4096 {
		return checkpointHeader{}, fmt.Errorf("core: corrupt checkpoint dims %+v", h)
	}
	if vals := h.NElem * h.Np * h.Np * h.Nlev * (5 + h.Qsize); vals > 1<<28 {
		return checkpointHeader{}, fmt.Errorf("core: checkpoint too large (%d values)", vals)
	}
	return h, nil
}

// values is the number of field values the header's dimensions imply:
// U, V, T, DP and Qsize tracers on every level, plus Phis.
func (h checkpointHeader) values() int {
	return int(h.NElem * h.Np * h.Np * (h.Nlev*(4+h.Qsize) + 1))
}

// encodedBytes is the exact length of the v2 encoding.
func (h checkpointHeader) encodedBytes() int { return headerBytes + 8*h.values() + crcBytes }

func stateFields(st *dycore.State) [][][]float64 {
	return [][][]float64{st.U, st.V, st.T, st.DP, st.Qdp, st.Phis}
}

// WriteCheckpoint serializes a state (and the step counter) to w in the
// current (v2, CRC-trailed) format. It issues one Write per element
// field slice and buffers nothing itself: hand it a buffered writer when
// w is a file (SaveCheckpoint does).
func WriteCheckpoint(w io.Writer, st *dycore.State, step int) error {
	var hdr [headerBytes]byte
	for i, word := range headerOf(st, step).words() {
		binary.LittleEndian.PutUint64(hdr[8*i:], word)
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: checkpoint header: %w", err)
	}
	var stage []byte
	crc := uint32(0)
	for _, field := range stateFields(st) {
		for _, e := range field {
			if _, err := w.Write(mpirt.WireBytes(e, &stage)); err != nil {
				return fmt.Errorf("core: checkpoint field: %w", err)
			}
			crc = mpirt.CRCFloats(crc, e)
		}
	}
	var trailer [crcBytes]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("core: checkpoint crc: %w", err)
	}
	return nil
}

// ReadCheckpoint restores a state written by WriteCheckpoint; the
// returned step lets the caller resume the remap cadence. A payload
// that fails its CRC is rejected with ErrChecksum. It reads exactly the
// checkpoint's bytes from r, one element field slice per Read, straight
// into the new state; hand it a buffered reader when r is a file.
func ReadCheckpoint(r io.Reader) (*dycore.State, int, error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("core: checkpoint header: %w", err)
	}
	var words [headerWords]uint64
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(hdr[8*i:])
	}
	h, err := parseHeader(words)
	if err != nil {
		return nil, 0, err
	}
	st := dycore.NewState(int(h.NElem), int(h.Np), int(h.Nlev), int(h.Qsize))
	var stage []byte
	crc := uint32(0)
	for _, field := range stateFields(st) {
		for _, e := range field {
			b := mpirt.WireBytes(e, &stage)
			if _, err := io.ReadFull(r, b); err != nil {
				return nil, 0, fmt.Errorf("core: checkpoint field: %w", err)
			}
			mpirt.FromWireBytes(e, b)
			crc = mpirt.CRCFloats(crc, e)
		}
	}
	var trailer [crcBytes]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, 0, fmt.Errorf("core: checkpoint crc: %w", err)
	}
	if want := binary.LittleEndian.Uint32(trailer[:]); crc != want {
		return nil, 0, fmt.Errorf("%w: stored %#x, computed %#x", ErrChecksum, want, crc)
	}
	return st, int(h.Step), nil
}

// byteSink is the io.Writer EncodeStateBytes collects into.
type byteSink []byte

func (s *byteSink) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

// EncodeStateBytes serializes a state (plus its step) into a v2
// checkpoint byte payload — fixed header, raw fields, CRC32-C trailer —
// sized exactly up front. This is the in-memory flavour of
// WriteCheckpoint.
func EncodeStateBytes(st *dycore.State, step int) ([]byte, error) {
	out := make(byteSink, 0, headerOf(st, step).encodedBytes())
	if err := WriteCheckpoint(&out, st, step); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeStateBytes restores a state from EncodeStateBytes output,
// verifying framing, dimensions, and the payload CRC. Arbitrary input
// yields an error, never a panic (the byte format is the fuzzed
// checkpoint format).
func DecodeStateBytes(b []byte) (*dycore.State, int, error) {
	return ReadCheckpoint(bytes.NewReader(b))
}

// fileBufBytes buffers checkpoint file I/O: the codec moves one element
// field slice (about a KiB) per call.
const fileBufBytes = 1 << 16

// SaveCheckpoint writes the state to a file, durably: the temp file is
// fsynced before the atomic rename so a crash leaves either the old
// complete file or the new complete file, never a torn one.
func SaveCheckpoint(path string, st *dycore.State, step int) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, fileBufBytes)
	err = WriteCheckpoint(bw, st, step)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads a state from a file.
func LoadCheckpoint(path string) (*dycore.State, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return ReadCheckpoint(bufio.NewReaderSize(f, fileBufBytes))
}
