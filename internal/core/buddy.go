package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"swcam/internal/dycore"
	"swcam/internal/mpirt"
)

// Partner-replicated diskless checkpoints — the middle rung of the
// recovery ladder. At every checkpoint interval each rank serializes
// its local dycore.State with the v2 checkpoint encoding (fixed header,
// raw fields, CRC32-C trailer) and ships the bytes to its buddy rank
// (r+1 mod n) over the message runtime. When a single rank dies, it is
// rebuilt in place from the buddy's in-memory copy while the survivors
// restore their own local snapshots — no disk, no global replay. The
// encoding is framed into a float64 payload because that is the only
// wire type mpirt carries, exactly as a real implementation would pack
// bytes into its transport's native datatype. The v2 header is 48 bytes
// and every value 8, so the framed payload is, word for word,
//
//	[byte length][6 header words][field values verbatim][CRC word]
//
// with the 4-byte CRC zero-padded to a word: encoding is a copy of the
// field slices plus one CRC pass into a buffer the caller owns, and
// verification reads the words where they lie.

// buddy exchange tags (outside halo's 101, the mass fixer's 202, and
// the reserved negative collective tags).
const (
	tagBuddySize = 203
	tagBuddyData = 204
)

// maxSnapshotBytes bounds a framed snapshot before decoding: the
// largest per-rank state the checkpoint reader itself would accept
// (1<<28 values), plus header and trailer slack.
const maxSnapshotBytes = 1<<31 - 1

// ErrBuddySnapshot reports a buddy-snapshot payload that cannot be
// decoded: bad framing, truncation, or a failed checkpoint CRC. The
// supervisor treats it as a lost copy and escalates to the next rung.
var ErrBuddySnapshot = errors.New("core: buddy snapshot undecodable")

// EncodeRankSnapshot serializes one rank's state (plus the step it was
// taken at) into a float64 wire payload: word 0 holds the byte length
// as a raw bit pattern, the remaining words hold the v2 checkpoint
// bytes little-endian, zero-padded to a word boundary.
func EncodeRankSnapshot(st *dycore.State, step int) ([]float64, error) {
	return encodeRankSnapshotInto(nil, st, step)
}

// encodeRankSnapshotInto is EncodeRankSnapshot into buf's storage,
// which is replaced only when too small; the checkpoint path keeps one
// staging buffer per rank.
func encodeRankSnapshotInto(buf []float64, st *dycore.State, step int) ([]float64, error) {
	h := headerOf(st, step)
	n := 1 + headerWords + h.values() + 1 // length word, header, fields, CRC word
	out := slices.Grow(buf[:0], n)[:n]
	out[0] = math.Float64frombits(uint64(h.encodedBytes()))
	for i, w := range h.words() {
		out[1+i] = math.Float64frombits(w)
	}
	body := out[1+headerWords : n-1]
	off := 0
	for _, field := range stateFields(st) {
		for _, e := range field {
			if off+len(e) <= len(body) {
				copy(body[off:], e)
			}
			off += len(e)
		}
	}
	if off != len(body) {
		return nil, fmt.Errorf("core: encoding rank snapshot: state holds %d values, its dimensions imply %d", off, len(body))
	}
	out[n-1] = math.Float64frombits(uint64(mpirt.CRCFloats(0, body)))
	return out, nil
}

// checkRankSnapshot verifies an encoded snapshot where it lies —
// framing, magic, version, every dimension bound, the length those
// dimensions imply, the payload CRC — and returns the header and the
// field words. Nothing is allocated; all failures wrap ErrBuddySnapshot.
func checkRankSnapshot(payload []float64) (checkpointHeader, []float64, error) {
	var h checkpointHeader
	if len(payload) < 1 {
		return h, nil, fmt.Errorf("%w: empty payload", ErrBuddySnapshot)
	}
	n := math.Float64bits(payload[0])
	if n > maxSnapshotBytes {
		return h, nil, fmt.Errorf("%w: framed length %d too large", ErrBuddySnapshot, n)
	}
	words := (int(n) + 7) / 8
	if words != len(payload)-1 {
		return h, nil, fmt.Errorf("%w: framed length %d needs %d words, payload has %d",
			ErrBuddySnapshot, n, words, len(payload)-1)
	}
	if n < headerBytes+crcBytes {
		return h, nil, fmt.Errorf("%w: framed length %d is shorter than a header and a CRC", ErrBuddySnapshot, n)
	}
	var hw [headerWords]uint64
	for i := range hw {
		hw[i] = math.Float64bits(payload[1+i])
	}
	h, err := parseHeader(hw)
	if err != nil {
		return h, nil, fmt.Errorf("%w: %w", ErrBuddySnapshot, err)
	}
	// Strict framing: words the dimensions do not account for would be
	// covered by no CRC.
	if int(n) != h.encodedBytes() {
		return h, nil, fmt.Errorf("%w: framed length %d, dimensions imply %d", ErrBuddySnapshot, n, h.encodedBytes())
	}
	body := payload[1+headerWords : len(payload)-1]
	// The whole CRC word is compared, so its zero padding is covered too.
	want, got := math.Float64bits(payload[len(payload)-1]), mpirt.CRCFloats(0, body)
	if want != uint64(got) {
		return h, nil, fmt.Errorf("%w: %w: stored %#x, computed %#x", ErrBuddySnapshot, ErrChecksum, want, got)
	}
	return h, body, nil
}

// VerifyRankSnapshot checks an encoded snapshot end to end — framing,
// header dimensions, payload CRC — in place, without materialising a
// state. The checkpoint path runs it on every payload *before* shipping
// to the buddy rank, so a snapshot that rotted between encode and ship
// can never overwrite the partner's last good copy; the generation
// store runs the same check when auditing retained buddy copies.
func VerifyRankSnapshot(payload []float64) error {
	_, _, err := checkRankSnapshot(payload)
	return err
}

// DecodeRankSnapshot decodes a payload produced by EncodeRankSnapshot.
// This is the untrusted surface of the localized-recovery path: the
// copy survived in a peer's memory across a failure, so framing, every
// header dimension, the implied length and the payload CRC are all
// verified before any allocation is made. All failures wrap
// ErrBuddySnapshot.
func DecodeRankSnapshot(payload []float64) (*dycore.State, int, error) {
	h, body, err := checkRankSnapshot(payload)
	if err != nil {
		return nil, 0, err
	}
	st := dycore.NewState(int(h.NElem), int(h.Np), int(h.Nlev), int(h.Qsize))
	for _, field := range stateFields(st) {
		for _, e := range field {
			body = body[copy(e, body):]
		}
	}
	return st, int(h.Step), nil
}
