package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"swcam/internal/dycore"
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
// SaveCheckpoint additionally fsyncs before the atomic rename: a crash
// between rename and writeback must not leave a valid-looking name on
// top of unwritten data.

const (
	checkpointMagic   = 0x53574341 // "SWCA"
	checkpointVersion = 2
)

// ErrChecksum reports a v2 checkpoint whose payload does not match its
// stored CRC (torn write, bit rot, truncated-then-padded file).
var ErrChecksum = errors.New("core: checkpoint payload checksum mismatch")

var checkpointCRCTable = crc32.MakeTable(crc32.Castagnoli)

type checkpointHeader struct {
	Magic   uint32
	Version uint32
	NElem   int64
	Np      int64
	Nlev    int64
	Qsize   int64
	Step    int64
}

func stateFields(st *dycore.State) [][][]float64 {
	return [][][]float64{st.U, st.V, st.T, st.DP, st.Qdp, st.Phis}
}

// WriteCheckpoint serializes a state (and the step counter) to w in the
// current (v2, CRC-trailed) format.
func WriteCheckpoint(w io.Writer, st *dycore.State, step int) error {
	bw := bufio.NewWriter(w)
	h := checkpointHeader{
		Magic: checkpointMagic, Version: checkpointVersion,
		NElem: int64(st.NElem()), Np: int64(st.Np),
		Nlev: int64(st.Nlev), Qsize: int64(st.Qsize), Step: int64(step),
	}
	if err := binary.Write(bw, binary.LittleEndian, &h); err != nil {
		return fmt.Errorf("core: checkpoint header: %w", err)
	}
	crc := crc32.New(checkpointCRCTable)
	body := io.MultiWriter(bw, crc)
	for _, field := range stateFields(st) {
		for _, e := range field {
			if err := binary.Write(body, binary.LittleEndian, e); err != nil {
				return fmt.Errorf("core: checkpoint field: %w", err)
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("core: checkpoint crc: %w", err)
	}
	return bw.Flush()
}

// ReadCheckpoint restores a state written by WriteCheckpoint; the
// returned step lets the caller resume the remap cadence. A payload
// that fails its CRC is rejected with ErrChecksum.
func ReadCheckpoint(r io.Reader) (*dycore.State, int, error) {
	br := bufio.NewReader(r)
	var h checkpointHeader
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return nil, 0, fmt.Errorf("core: checkpoint header: %w", err)
	}
	if h.Magic != checkpointMagic {
		return nil, 0, fmt.Errorf("core: not a checkpoint (magic %#x)", h.Magic)
	}
	if h.Version != checkpointVersion {
		return nil, 0, fmt.Errorf("core: checkpoint version %d unsupported", h.Version)
	}
	// Bound every dimension before allocating: a corrupt or hostile
	// header must produce an error, not an enormous allocation. The caps
	// cover any run this library can actually perform (ne4096 worth of
	// elements on one rank would not fit in memory anyway).
	if h.NElem <= 0 || h.NElem > 1<<26 ||
		h.Np < 2 || h.Np > 64 ||
		h.Nlev < 1 || h.Nlev > 4096 ||
		h.Qsize < 0 || h.Qsize > 4096 {
		return nil, 0, fmt.Errorf("core: corrupt checkpoint dims %+v", h)
	}
	if vals := h.NElem * h.Np * h.Np * h.Nlev * (5 + h.Qsize); vals > 1<<28 {
		return nil, 0, fmt.Errorf("core: checkpoint too large (%d values)", vals)
	}
	st := dycore.NewState(int(h.NElem), int(h.Np), int(h.Nlev), int(h.Qsize))
	crc := crc32.New(checkpointCRCTable)
	body := io.TeeReader(br, crc)
	for _, field := range stateFields(st) {
		for _, e := range field {
			if err := binary.Read(body, binary.LittleEndian, e); err != nil {
				return nil, 0, fmt.Errorf("core: checkpoint field: %w", err)
			}
		}
	}
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return nil, 0, fmt.Errorf("core: checkpoint crc: %w", err)
	}
	if got := crc.Sum32(); got != want {
		return nil, 0, fmt.Errorf("%w: stored %#x, computed %#x", ErrChecksum, want, got)
	}
	return st, int(h.Step), nil
}

// EncodeStateBytes serializes a state (plus its step) into a v2
// checkpoint byte payload — fixed header, raw fields, CRC32-C trailer.
// This is the in-memory flavour of WriteCheckpoint, shared by the buddy
// replication wire format and the serving layer's snapshot store.
func EncodeStateBytes(st *dycore.State, step int) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, st, step); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeStateBytes restores a state from EncodeStateBytes output,
// verifying framing, dimensions, and the payload CRC. Arbitrary input
// yields an error, never a panic (the byte format is the fuzzed
// checkpoint format).
func DecodeStateBytes(b []byte) (*dycore.State, int, error) {
	return ReadCheckpoint(bytes.NewReader(b))
}

// SaveCheckpoint writes the state to a file, durably: the temp file is
// fsynced before the atomic rename so a crash leaves either the old
// complete file or the new complete file, never a torn one.
func SaveCheckpoint(path string, st *dycore.State, step int) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteCheckpoint(f, st, step); err != nil {
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
	return ReadCheckpoint(f)
}
