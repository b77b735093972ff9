package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// writeFuzzCorpusEntry encodes data in the Go native fuzzing corpus
// format (go test fuzz v1) under testdata/fuzz/<fuzzName>/<entry>, the
// directory `go test` replays on every ordinary test run.
func writeFuzzCorpusEntry(t *testing.T, fuzzName, entry string, data []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
	if err := os.WriteFile(filepath.Join(dir, entry), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRegenFuzzCorpora rewrites the checked-in seed corpora for
// FuzzReadCheckpoint and FuzzReadHistory from the same generators that
// seed the fuzzers, so corpus and f.Add seeds cannot drift apart.
// Gated behind SWCAM_REGEN_FUZZ_CORPUS; run with the variable set after
// changing the checkpoint or history format, then commit the result.
func TestRegenFuzzCorpora(t *testing.T) {
	if os.Getenv("SWCAM_REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set SWCAM_REGEN_FUZZ_CORPUS=1 to regenerate the checked-in fuzz seed corpora")
	}
	st := makeSeedState()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, st, 3); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	writeFuzzCorpusEntry(t, "FuzzReadCheckpoint", "seed-valid-v2", valid)
	writeFuzzCorpusEntry(t, "FuzzReadCheckpoint", "seed-truncated-body", valid[:len(valid)/2])
	writeFuzzCorpusEntry(t, "FuzzReadCheckpoint", "seed-truncated-crc", valid[:len(valid)-2])
	writeFuzzCorpusEntry(t, "FuzzReadCheckpoint", "seed-garbage", []byte("garbage"))

	corrupted := append([]byte(nil), valid...)
	corrupted[4] ^= 0xFF
	writeFuzzCorpusEntry(t, "FuzzReadCheckpoint", "seed-corrupt-dims", corrupted)

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	writeFuzzCorpusEntry(t, "FuzzReadCheckpoint", "seed-bitflip-field", flipped)

	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xFF
	writeFuzzCorpusEntry(t, "FuzzReadCheckpoint", "seed-bad-crc", badCRC)

	v1 := append([]byte(nil), valid[:len(valid)-4]...)
	v1[4] = 1 // legacy version byte, no CRC trailer: must be rejected
	writeFuzzCorpusEntry(t, "FuzzReadCheckpoint", "seed-legacy-v1", v1)

	writeFuzzCorpusEntry(t, "FuzzReadHistory", "seed-junk", []byte("junk"))
	writeFuzzCorpusEntry(t, "FuzzReadHistory", "seed-zero-header", make([]byte, 48))

	for name, data := range buddySnapshotSeeds(t.Fatal) {
		writeFuzzCorpusEntry(t, "FuzzDecodeRankSnapshot", name, data)
	}
}

// TestFuzzCorporaCheckedIn guards against the seed corpora being
// accidentally deleted: every fuzz target must have checked-in entries
// (they run as regular test cases on every `go test`).
func TestFuzzCorporaCheckedIn(t *testing.T) {
	for target, min := range map[string]int{
		"FuzzReadCheckpoint":     5,
		"FuzzReadHistory":        2,
		"FuzzDecodeRankSnapshot": 13,
	} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", target))
		if err != nil {
			t.Errorf("missing checked-in corpus for %s: %v", target, err)
			continue
		}
		if len(entries) < min {
			t.Errorf("%s corpus has %d entries, want >= %d", target, len(entries), min)
		}
	}
}
