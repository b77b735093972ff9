package serve

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/obs"
)

// Store is the versioned snapshot store between the integration loops
// and the request path. Each ensemble member owns one slot; after every
// completed cycle the member encodes its gathered global state with the
// v2 checkpoint codec (fixed header, raw fields, CRC32-C trailer) into
// one of the slot's two alternating buffers and publishes it with an
// atomic pointer swap.
//
// The contract is asymmetric by design:
//
//   - The writer (the member's integration loop) never takes a lock a
//     reader can hold: publishing is one encode into a writer-owned
//     buffer plus one atomic store. Readers can never block the
//     integration.
//   - Readers copy the published bytes and verify the CRC of the copy
//     before decoding. Double buffering means a reader that holds a
//     snapshot for two full publish intervals can observe its buffer
//     being overwritten (the writer lapped it); the CRC turns that torn
//     read into a detected, counted event and the reader retries on
//     the fresh pointer — a torn snapshot is never served.
//
// Decoded states are cached per version under a reader-side mutex so a
// burst of requests against the same snapshot pays one decode, not one
// per request. Cached states are shared read-only by handlers.
type Store struct {
	reg   *obs.Registry // nil = uncounted
	slots []storeSlot

	// OnPublish, when set, observes every published snapshot with a
	// private copy of its encoded bytes. Test hook for bit-identity
	// assertions; nil in production.
	OnPublish func(member, step int, data []byte)
}

// Meta identifies one published snapshot.
type Meta struct {
	Member   int
	Version  int64 // 1-based, monotonically increasing per member
	Step     int   // model step the snapshot was taken at
	SimHours float64
	Taken    time.Time
}

// snapshot is the published unit: metadata plus a view of the encoded
// bytes in one of the slot's reused buffers, sealed by a CRC taken at
// publish time.
type snapshot struct {
	Meta
	data []byte
	crc  uint32
}

type storeSlot struct {
	cur atomic.Pointer[snapshot]

	// Writer-owned: the two alternating encode buffers, the publish
	// count that selects between them, and the codec's scratch.
	bufs  [2]bytes.Buffer
	n     int64
	codec core.CheckpointCodec
	// stepG is the slot's serve.member.<i>.snapshot_step gauge (nil =
	// uncounted).
	stepG *obs.Gauge

	// Reader-side decode cache (the writer never touches it).
	mu       sync.Mutex
	cachedV  int64
	cached   *dycore.State
	cachedAt Meta
}

var storeCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Store read errors.
var (
	// ErrNoSnapshot means the member has not published anything yet
	// (still spinning up, or it crashed before its first cycle).
	ErrNoSnapshot = errors.New("serve: no snapshot published yet")
	// ErrTornSnapshot means repeated reads kept failing verification —
	// only reachable if the writer laps the reader on every retry.
	ErrTornSnapshot = errors.New("serve: snapshot torn on every read attempt")
)

// NewStore creates a store with one slot per member. The store's
// counters are pre-registered so /v1/metrics surfaces them at zero
// instead of only after the first event.
func NewStore(members int, reg *obs.Registry) *Store {
	for _, c := range []string{
		"serve.snapshots.published", "serve.snapshots.torn",
		"serve.snapshots.verifies", "serve.snapshots.verify_failed",
	} {
		reg.Counter(c).Add(0)
	}
	s := &Store{reg: reg, slots: make([]storeSlot, members)}
	for i := range s.slots {
		s.slots[i].stepG = reg.Gauge(fmt.Sprintf("serve.member.%d.snapshot_step", i))
	}
	return s
}

// Members returns the slot count.
func (s *Store) Members() int { return len(s.slots) }

// Publish encodes st (at the given model step) into member's slot and
// makes it the latest version. Only the member's integration loop may
// call Publish for its own slot.
func (s *Store) Publish(member, step int, simHours float64, st *dycore.State) error {
	slot := &s.slots[member]
	buf := &slot.bufs[slot.n%2]
	buf.Reset()
	if err := slot.codec.Encode(buf, st, step); err != nil {
		return fmt.Errorf("serve: encoding snapshot of member %d: %w", member, err)
	}
	data := buf.Bytes()
	// The first publish sizes the other buffer too (it holds no
	// snapshot yet), so the second publish does not grow it either.
	if other := &slot.bufs[(slot.n+1)%2]; other.Cap() < len(data) {
		other.Grow(len(data))
	}
	slot.n++
	snap := &snapshot{
		Meta: Meta{
			Member: member, Version: slot.n, Step: step,
			SimHours: simHours, Taken: time.Now(),
		},
		data: data,
		crc:  crc32.Checksum(data, storeCRCTable),
	}
	slot.cur.Store(snap)
	s.reg.Counter("serve.snapshots.published").Add(1)
	slot.stepG.Set(float64(step))
	if s.OnPublish != nil {
		cp := make([]byte, len(data))
		copy(cp, data)
		s.OnPublish(member, step, cp)
	}
	return nil
}

// Latest returns the metadata of member's newest snapshot, or false if
// none has been published.
func (s *Store) Latest(member int) (Meta, bool) {
	snap := s.slots[member].cur.Load()
	if snap == nil {
		return Meta{}, false
	}
	return snap.Meta, true
}

// Read returns member's latest decoded snapshot. The returned state is
// shared between callers and must be treated as read-only. A torn read
// (the writer overwrote the buffer mid-copy) is detected by the CRC,
// counted, and retried against the newer version that caused it.
func (s *Store) Read(member int) (*dycore.State, Meta, error) {
	slot := &s.slots[member]
	const attempts = 4
	for try := 0; try < attempts; try++ {
		snap := slot.cur.Load()
		if snap == nil {
			return nil, Meta{}, ErrNoSnapshot
		}
		slot.mu.Lock()
		if slot.cachedV == snap.Version {
			st, meta := slot.cached, slot.cachedAt
			slot.mu.Unlock()
			return st, meta, nil
		}
		// Copy out of the shared buffer first, then verify the copy:
		// both the CRC check and the decode must see the same bytes.
		data := make([]byte, len(snap.data))
		copy(data, snap.data)
		if crc32.Checksum(data, storeCRCTable) != snap.crc {
			slot.mu.Unlock()
			s.reg.Counter("serve.snapshots.torn").Add(1)
			continue
		}
		st, step, err := core.DecodeStateBytes(data)
		if err != nil || step != snap.Step {
			// Same event as a CRC mismatch seen through the decoder.
			slot.mu.Unlock()
			s.reg.Counter("serve.snapshots.torn").Add(1)
			continue
		}
		slot.cachedV = snap.Version
		slot.cached = st
		slot.cachedAt = snap.Meta
		slot.mu.Unlock()
		return st, snap.Meta, nil
	}
	return nil, Meta{}, ErrTornSnapshot
}

// ErrSnapshotCorrupt means a member's latest published snapshot fails
// CRC verification against a stable pointer — not a torn read (the
// writer has not republished), but corruption at rest in the published
// buffer. A member in this state must not be served or counted ready.
var ErrSnapshotCorrupt = errors.New("serve: latest snapshot corrupt at rest")

// VerifyLatest re-verifies member's latest published snapshot without
// decoding or caching it — the readiness probe's integrity gate. A CRC
// mismatch while the published pointer moves is a torn read (counted,
// retried); a mismatch against a pointer that did not move means the
// bytes rotted after publish (the writer alternates two buffers and
// only republishes with a fresh CRC), which is reported as
// ErrSnapshotCorrupt. Returns ErrNoSnapshot when nothing is published.
func (s *Store) VerifyLatest(member int) error {
	slot := &s.slots[member]
	const attempts = 4
	for try := 0; try < attempts; try++ {
		snap := slot.cur.Load()
		if snap == nil {
			return ErrNoSnapshot
		}
		data := make([]byte, len(snap.data))
		copy(data, snap.data)
		s.reg.Counter("serve.snapshots.verifies").Add(1)
		if crc32.Checksum(data, storeCRCTable) == snap.crc {
			return nil
		}
		if slot.cur.Load() != snap {
			// The writer republished mid-copy: an ordinary torn read.
			s.reg.Counter("serve.snapshots.torn").Add(1)
			continue
		}
		s.reg.Counter("serve.snapshots.verify_failed").Add(1)
		return fmt.Errorf("%w: member %d version %d", ErrSnapshotCorrupt, member, snap.Version)
	}
	return ErrTornSnapshot
}
