package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swcam/internal/dycore"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := testDycoreCfg(2, 8, 2)
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	s.InitBaroclinicWave(st)
	s.InitCosineBellTracer(st, 0, 1, 0, 0.5)
	s.Step(st)

	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, st, 7); err != nil {
		t.Fatal(err)
	}
	got, step, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if step != 7 {
		t.Errorf("step = %d", step)
	}
	if d := got.MaxAbsDiff(st); d != 0 {
		t.Errorf("round trip not bit-exact: %g", d)
	}
	// Phis restored too (MaxAbsDiff skips it).
	for ei := range st.Phis {
		for n := range st.Phis[ei] {
			if got.Phis[ei][n] != st.Phis[ei][n] {
				t.Fatal("Phis not restored")
			}
		}
	}
}

// Bit-exact restart: stepping N then M steps equals stepping N, saving,
// loading, and stepping M — the climate-model restart contract.
func TestCheckpointRestartBitExact(t *testing.T) {
	cfg := testDycoreCfg(2, 8, 1)
	mk := func() (*dycore.Solver, *dycore.State) {
		s, err := dycore.NewSolver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := s.NewState()
		s.InitBaroclinicWave(st)
		s.InitCosineBellTracer(st, 0, 1, 0, 0.5)
		return s, st
	}
	// Continuous run: 5 steps.
	s1, ref := mk()
	for i := 0; i < 5; i++ {
		s1.Step(ref)
	}
	// Interrupted run: 2 steps, checkpoint, restore into a FRESH solver,
	// 3 more steps. Note the remap cadence must survive the restart.
	s2, st := mk()
	for i := 0; i < 2; i++ {
		s2.Step(st)
	}
	path := filepath.Join(t.TempDir(), "restart.bin")
	if err := SaveCheckpoint(path, st, 2); err != nil {
		t.Fatal(err)
	}
	restored, step, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	s3, _ := dycore.NewSolver(cfg)
	s3.SetStep(step)
	for i := 0; i < 3; i++ {
		s3.Step(restored)
	}
	if d := restored.MaxAbsDiff(ref); d != 0 {
		t.Errorf("restart not bit-exact: diff %g", d)
	}
}

// writeCheckpointV1 emits the legacy (pre-CRC) format no writer
// produces any more.
func writeCheckpointV1(w io.Writer, st *dycore.State, step int) error {
	h := struct {
		Magic, Version               uint32
		NElem, Np, Nlev, Qsize, Step int64
	}{0x53574341, 1, int64(st.NElem()), int64(st.Np), int64(st.Nlev), int64(st.Qsize), int64(step)}
	if err := binary.Write(w, binary.LittleEndian, &h); err != nil {
		return err
	}
	for _, field := range [][][]float64{st.U, st.V, st.T, st.DP, st.Qdp, st.Phis} {
		for _, e := range field {
			if err := binary.Write(w, binary.LittleEndian, e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reading a version-1 file (no payload CRC, so nothing to verify it
// against) must be refused by version, before any field is read.
func TestCheckpointReadsVersion1(t *testing.T) {
	cfg := testDycoreCfg(2, 4, 1)
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	s.InitBaroclinicWave(st)
	var buf bytes.Buffer
	if err := writeCheckpointV1(&buf, st, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "version 1 unsupported") {
		t.Fatalf("v1 checkpoint: err = %v, want a version rejection", err)
	}
}

// A single flipped bit anywhere in a v2 body must be caught by the CRC,
// and a truncated v2 body must fail cleanly.
func TestCheckpointV2DetectsCorruption(t *testing.T) {
	st := dycore.NewState(2, 4, 4, 1)
	st.U[0][0] = 1.5
	st.T[1][7] = 280
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, st, 3); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	const headerLen = 8 + 5*8
	for _, off := range []int{headerLen, headerLen + 100, len(valid) - 5} {
		corrupt := append([]byte(nil), valid...)
		corrupt[off] ^= 0x10
		_, _, err := ReadCheckpoint(bytes.NewReader(corrupt))
		if !errors.Is(err, ErrChecksum) {
			t.Errorf("bit flip at %d gave %v, want ErrChecksum", off, err)
		}
	}
	// Flipping the stored CRC itself is also a checksum mismatch.
	corrupt := append([]byte(nil), valid...)
	corrupt[len(valid)-1] ^= 0xFF
	if _, _, err := ReadCheckpoint(bytes.NewReader(corrupt)); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped CRC gave %v, want ErrChecksum", err)
	}
	// Truncations: mid-body and mid-CRC.
	for _, n := range []int{len(valid) / 2, len(valid) - 2} {
		if _, _, err := ReadCheckpoint(bytes.NewReader(valid[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestSaveCheckpointDurable(t *testing.T) {
	st := dycore.NewState(2, 4, 4, 0)
	st.DP[0][0] = 1000
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := SaveCheckpoint(path, st, 1); err != nil {
		t.Fatal(err)
	}
	// The temp file must not survive the atomic rename.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
	got, _, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.DP[0][0] != 1000 {
		t.Error("state not restored")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, _, err := ReadCheckpoint(bytes.NewReader([]byte("not a checkpoint at all............"))); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	st := dycore.NewState(2, 4, 4, 0)
	if err := WriteCheckpoint(&buf, st, 0); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-field.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, _, err := ReadCheckpoint(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}
