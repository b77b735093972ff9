// Package mpirt is a miniature in-process message-passing runtime with
// MPI-like semantics: a fixed set of ranks running concurrently (as
// goroutines), point-to-point Send/IsendInto/Recv/IrecvInto with tag matching,
// and the collectives CAM-SE needs (Barrier, Allreduce, Bcast, Gather).
//
// On TaihuLight one MPI process runs per core group ("MPI + X", §5.3 of
// the paper); here one goroutine runs per rank and owns one simulated
// core group. The runtime counts messages and bytes per rank so the
// machine model in internal/perf can convert communication volume into
// modeled network time with a LogGP-style cost.
//
// At the 10M-core scale of the paper's headline runs, failures are part
// of the workload, so the runtime also carries failure semantics:
//   - every payload is CRC-protected (corruption is detected, not
//     silently averaged into the fields),
//   - receives can carry deadlines (a lost message surfaces as
//     ErrTimeout instead of a hang),
//   - when any rank faults, the world is poisoned: every peer blocked in
//     a receive or barrier unblocks with ErrWorldAborted and World.Run
//     returns a RunError naming the faulty rank,
//   - a deterministic, seeded FaultPlan (faults.go) can kill ranks and
//     corrupt, drop, or delay messages to exercise all of the above.
package mpirt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"swcam/internal/obs"
	"swcam/internal/parked"
)

// Stats accumulates per-rank communication counters.
type Stats struct {
	MsgsSent   int64
	BytesSent  int64
	MsgsRecvd  int64
	BytesRecvd int64
	// Retransmission counters (failure detector, see RetryPolicy):
	// attempts counts retry cycles entered after a timeout/CRC failure,
	// recovered counts messages ultimately delivered from the
	// retransmit log instead of being escalated.
	RetxAttempts  int64
	RetxRecovered int64
	// Collective activity: operations entered and wall time inside them
	// (barrier, reduce, bcast, allreduce, gather). The scaling campaign
	// reads these back as the per-phase "collective" bucket.
	CollOps int64
	CollNs  int64
}

type message struct {
	src, tag int
	seq      uint64 // position in the (src, dst, tag) stream; see seqKey
	data     []float64
	crc      uint32
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian, decided once at init: on a little-endian host a
// []float64 already is its wire bytes.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes is the byte view of vals' own memory: on a little-endian
// host, exactly their wire bytes.
func floatBytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// CRCFloats folds vals into crc (CRC-32C) as little-endian IEEE-754 bit
// patterns: the checksum a real transport computes over the wire bytes,
// and the one internal/integrity seals resident state with. A
// little-endian host hashes the values in place through a byte view, so
// the stdlib's hardware CRC runs with no scratch and no allocation; a
// big-endian host keeps the same value through a staged copy (whose
// buffer the indirect call into the accelerated path sends to the heap).
func CRCFloats(crc uint32, vals []float64) uint32 {
	if !hostLittleEndian {
		return crcFloatsStaged(crc, vals)
	}
	return crc32.Update(crc, crcTable, floatBytes(vals))
}

// WireBytes returns the little-endian IEEE-754 bytes of vals, for a
// codec that moves whole field slices (core's checkpoint format). On a
// little-endian host that is the values' own memory — the result
// aliases vals, nothing is copied and *stage is untouched; a big-endian
// host encodes into *stage, grown as needed, which keeps the format
// little-endian everywhere. A reader fills the returned bytes and then
// calls FromWireBytes.
func WireBytes(vals []float64, stage *[]byte) []byte {
	if hostLittleEndian {
		return floatBytes(vals)
	}
	return wireBytesStaged(vals, stage)
}

func wireBytesStaged(vals []float64, stage *[]byte) []byte {
	if cap(*stage) < 8*len(vals) {
		*stage = make([]byte, 8*len(vals))
	}
	b := (*stage)[:8*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// FromWireBytes stores into vals the values whose wire bytes a reader
// put in b, the slice WireBytes returned for vals: nothing to do where
// b is vals' own memory, a decode of the staged bytes on a big-endian
// host.
func FromWireBytes(vals []float64, b []byte) {
	if !hostLittleEndian {
		fromWireBytesStaged(vals, b)
	}
}

func fromWireBytesStaged(vals []float64, b []byte) {
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func crcFloatsStaged(crc uint32, vals []float64) uint32 {
	var buf [512 * 8]byte
	for len(vals) > 0 {
		n := min(512, len(vals))
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		crc = crc32.Update(crc, crcTable, buf[:n*8])
		vals = vals[n:]
	}
	return crc
}

// payloadCRC is the CRC a message carries: CRCFloats from zero.
func payloadCRC(data []float64) uint32 { return CRCFloats(0, data) }

// World owns the mailboxes and counters of an nranks-rank job.
//
// A world that completed a Run may run again: its mailbox freelists,
// per-rank Comm handles (with their collective scratch) and sequence
// numbers carry over, so a job that keeps one world steps without
// reallocating its message buffers. Sequence numbers continue across
// runs, so the delayed original of a message recovered in an earlier
// run is still discarded as stale. A poisoned world (Run returned an
// error) stays poisoned and must be replaced.
type World struct {
	n     int
	boxes []*mailbox // one per destination rank
	stats []Stats
	comms []Comm     // one per rank, reused by every Run
	tasks []rankTask // one per rank: what Run hands a parked goroutine

	barrier *barrier

	recvTimeout time.Duration // default deadline for receives; 0 = wait forever
	faults      *FaultPlan    // nil = fault-free
	tracer      *obs.Tracer   // nil = untraced (see obs.go)
	retry       RetryPolicy   // bounded retransmission; zero value = off

	// sendSeq[src] numbers the messages of each (dst, tag) stream this
	// rank sends. One map per rank, touched only by that rank's
	// goroutine, so sends stay lock-free.
	sendSeq []map[seqKey]uint64

	aborted   atomic.Bool
	abortMu   sync.Mutex
	abortRank int
	abortErr  error

	// The Run in flight: the rank body, and its ranks still running.
	runFn   func(c *Comm)
	running sync.WaitGroup
}

// mailbox is the receive queue of one rank: a condition-variable-guarded
// list supporting tag- and source-selective matching like MPI, but with
// strictly sequenced delivery per (src, tag) stream: a message is only
// matched when it carries the stream's next expected sequence number. A
// gap — the expected message was dropped or delayed on the wire — makes
// the receive wait (and eventually time out into the retransmission
// path) instead of silently consuming a later message of the same
// stream, and a stale sequence number (the delayed original of a
// message already recovered from the retransmit log) is discarded. The
// mailbox also holds the senders' clean payload log — the "NIC buffer"
// a real transport retries from.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	retx    []message         // clean copies, send order (retry enabled only)
	nextSeq map[seqKey]uint64 // next expected seq per (src, tag) stream
	// free recycles delivered payload buffers back to senders (the
	// steady-state zero-allocation path). With retransmission on, the
	// retx log and a delayed original can hold a second reference to a
	// sent payload, so a buffer comes back only from an in-sequence
	// delivery whose log entry the acknowledgement just removed
	// (recvOnce) — never from recvRetx, never from a stale duplicate.
	free [][]float64
}

// getBuf takes a recycled payload buffer of length n from the freelist,
// or allocates one. Called by senders targeting this mailbox. It takes
// the smallest buffer that fits (an exact fit ends the scan), so a short
// message never holds the buffer a long one needs: a world kept across
// runs then stops allocating once its freelists hold what one step has
// in flight.
func (b *mailbox) getBuf(n int) []float64 {
	b.mu.Lock()
	best := -1
	for i := len(b.free) - 1; i >= 0; i-- {
		if c := cap(b.free[i]); c >= n && (best < 0 || c < cap(b.free[best])) {
			best = i
			if c == n {
				break
			}
		}
	}
	if best < 0 {
		b.mu.Unlock()
		return make([]float64, n)
	}
	buf := b.free[best][:n]
	last := len(b.free) - 1
	b.free[best] = b.free[last]
	b.free[last] = nil
	b.free = b.free[:last]
	b.mu.Unlock()
	return buf
}

// putBuf returns a delivered payload buffer to the freelist once the
// receiver has copied it out.
func (b *mailbox) putBuf(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	b.mu.Lock()
	b.free = append(b.free, buf)
	b.mu.Unlock()
}

// seqKey identifies one ordered message stream: the peer rank plus the
// tag (the sender keys by destination, the receiver by source).
type seqKey struct {
	rank int
	tag  int
}

func newMailbox() *mailbox {
	b := &mailbox{nextSeq: make(map[seqKey]uint64)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m message) {
	b.mu.Lock()
	b.pending = append(b.pending, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// take blocks until the next in-sequence message of the (src, tag)
// stream is available and removes it. Out-of-sequence arrivals do not
// match: a gap keeps the receive waiting (retransmission's job), a
// stale duplicate is discarded on sight. With d > 0 the wait is
// bounded: expiry returns ErrTimeout. A poisoned world returns
// ErrWorldAborted instead of blocking forever.
func (b *mailbox) take(w *World, src, tag int, d time.Duration) (message, error) {
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
		timer := time.AfterFunc(d, func() {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		})
		defer timer.Stop()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if w.aborted.Load() {
			return message{}, ErrWorldAborted
		}
		exp := b.nextSeq[seqKey{src, tag}]
		for i := 0; i < len(b.pending); i++ {
			m := b.pending[i]
			if m.src != src || m.tag != tag {
				continue
			}
			if m.seq < exp {
				// Stale duplicate: the delayed original of a message
				// already delivered via the retransmit log. Discard it.
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				i--
				continue
			}
			if m.seq == exp {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				b.nextSeq[seqKey{src, tag}] = exp + 1
				return m, nil
			}
			// m.seq > exp: the expected message is missing (dropped or
			// still in flight). Matching this one instead would hand the
			// caller the wrong round's data — keep waiting.
		}
		if d > 0 && !time.Now().Before(deadline) {
			return message{}, fmt.Errorf("%w: from rank %d tag %d after %v", ErrTimeout, src, tag, d)
		}
		b.cond.Wait()
	}
}

// NewWorld creates a world with nranks ranks.
func NewWorld(nranks int) *World {
	if nranks < 1 {
		panic(fmt.Sprintf("mpirt: world size %d", nranks))
	}
	w := &World{
		n:       nranks,
		boxes:   make([]*mailbox, nranks),
		stats:   make([]Stats, nranks),
		comms:   make([]Comm, nranks),
		tasks:   make([]rankTask, nranks),
		barrier: newBarrier(nranks),
		sendSeq: make([]map[seqKey]uint64, nranks),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
		w.sendSeq[i] = make(map[seqKey]uint64)
		w.comms[i] = Comm{world: w, rank: i}
		w.tasks[i] = rankTask{w: w, rank: i}
	}
	return w
}

// SetRecvTimeout sets the default deadline applied to every blocking
// receive (Recv, IrecvInto's Wait, and the receives inside the
// collectives). Zero restores the MPI default of waiting forever. A
// per-call RecvTimeout overrides it. Set it before Run.
func (w *World) SetRecvTimeout(d time.Duration) { w.recvTimeout = d }

// SetFaults attaches a fault-injection plan. The plan keeps its own
// per-rank operation counters, so the same plan threaded through
// successive worlds (a supervisor's retries) continues where it left off
// and each scheduled fault fires exactly once. Set it before Run.
func (w *World) SetFaults(p *FaultPlan) { w.faults = p }

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Stats returns a copy of the accumulated counters for a rank. An
// out-of-range rank returns a zero Stats rather than panicking, so
// diagnostic paths that probe a dead or mis-addressed rank stay safe.
func (w *World) Stats(rank int) Stats {
	if rank < 0 || rank >= w.n {
		return Stats{}
	}
	return w.stats[rank]
}

// ResetStats zeroes every rank's counters, so that the next Run's
// Stats, TotalBytes and DumpStats describe that run alone. Call it
// between runs, never during one.
func (w *World) ResetStats() { clear(w.stats) }

// TotalBytes returns the total bytes sent across all ranks.
func (w *World) TotalBytes() int64 {
	var total int64
	for i := range w.stats {
		total += w.stats[i].BytesSent
	}
	return total
}

// poison marks the world dead and wakes every blocked rank. The first
// caller's (rank, err) is recorded as the root cause; ranks that fail
// afterwards — typically with ErrWorldAborted as a consequence — do not
// overwrite it.
func (w *World) poison(rank int, err error) {
	w.abortMu.Lock()
	if w.abortErr == nil {
		w.abortRank, w.abortErr = rank, err
	}
	w.abortMu.Unlock()
	w.aborted.Store(true)
	for _, b := range w.boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	w.barrier.mu.Lock()
	w.barrier.cond.Broadcast()
	w.barrier.mu.Unlock()
}

// Run spawns fn on every rank and blocks until all return. Each rank
// receives its own Comm handle, the same one on every Run of the world.
//
// Failure semantics: if any rank faults — an injected fault, a failed
// CRC check, a receive timeout, an explicit Fail, or a plain panic in fn
// — the world is poisoned so that every other rank blocked in a receive,
// barrier, or collective unblocks with ErrWorldAborted. Run then returns
// a *RunError naming the first genuinely faulty rank and wrapping its
// cause. Run never deadlocks on a faulty rank and never re-raises the
// panic; a nil return means every rank completed.
//
// Ranks run on goroutines parked in the process's pool between runs
// (package parked), so a warm Run starts its ranks without allocating.
func (w *World) Run(fn func(c *Comm)) error {
	w.runFn = fn
	w.running.Add(w.n)
	for r := range w.tasks {
		parked.Go(&w.tasks[r])
	}
	w.running.Wait()
	w.runFn = nil
	w.abortMu.Lock()
	rank, cause := w.abortRank, w.abortErr
	w.abortMu.Unlock()
	if cause != nil {
		return &RunError{Rank: rank, Err: cause}
	}
	return nil
}

// rankTask runs one rank of the world's Run in flight on a parked
// goroutine; its world and rank are its fields, not a closure's.
type rankTask struct {
	w    *World
	rank int
}

func (t *rankTask) Run() { t.w.runFn(&t.w.comms[t.rank]) }

// Done poisons the world if the rank panicked (see Run). A rank that
// calls runtime.Goexit (a test's t.FailNow) ends like any other rank of
// the run.
func (t *rankTask) Done(p any) {
	if p != nil {
		if err, ok := p.(rankFailure); ok {
			t.w.poison(t.rank, err.err)
		} else {
			t.w.poison(t.rank, fmt.Errorf("%w: %v", ErrPanic, p))
		}
	}
	t.w.running.Done()
}

// Comm is one rank's handle to the world.
type Comm struct {
	world *World
	rank  int

	// Pooled collective scratch (grown on demand, reused every call) so
	// the steady-state Allreduce/AllreduceScalar hot paths — the blowup
	// watchdog runs one per checked step — allocate nothing.
	arScratch   []float64
	arIn, arOut []float64
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.n }

// faultPoint advances this rank's operation counter and fires any due
// fault. Kill faults unwind the rank immediately; message faults are
// returned to the caller (Send) to apply.
func (c *Comm) faultPoint(isSend bool) *Fault {
	p := c.world.faults
	if p == nil {
		return nil
	}
	f := p.fire(c.rank, isSend)
	if f != nil && f.Kind == KillRank {
		fail(fmt.Errorf("%w (rank %d, op %d)", ErrKilled, c.rank, f.AfterOp))
	}
	return f
}

// Send delivers a copy of data to dst with the given tag. The copy makes
// the semantics of a real network explicit: the sender may reuse its
// buffer immediately (MPI's buffered-send behaviour). The payload is
// CRC-stamped at send time; the receive side verifies it.
func (c *Comm) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= c.world.n {
		panic(fmt.Sprintf("mpirt: send to rank %d of %d", dst, c.world.n))
	}
	if c.world.aborted.Load() {
		fail(ErrWorldAborted)
	}
	f := c.faultPoint(true)
	// The payload copy comes from the destination mailbox's freelist
	// (the receiver recycles it after the copy-out), so the steady-state
	// exchange allocates nothing.
	buf := c.world.boxes[dst].getBuf(len(data))
	copy(buf, data)
	sk := seqKey{dst, tag}
	seq := c.world.sendSeq[c.rank][sk]
	c.world.sendSeq[c.rank][sk] = seq + 1
	m := message{src: c.rank, tag: tag, seq: seq, data: buf, crc: payloadCRC(buf)}

	st := &c.world.stats[c.rank]
	st.MsgsSent++
	st.BytesSent += int64(len(data) * 8)

	box := c.world.boxes[dst]
	// With retransmission enabled the clean message is logged before any
	// fault applies — the sender's NIC keeps the payload until the
	// receiver acknowledges it, so corruption or loss on the wire leaves
	// an intact copy to retry from.
	if c.world.retry.enabled() {
		box.logRetx(m)
	}
	if f != nil {
		switch f.Kind {
		case DropMsg:
			return // silently lost: the receiver's deadline must catch it
		case CorruptMsg:
			// Flip one mantissa bit after the CRC was computed, exactly
			// like corruption on the wire; zero-length payloads corrupt
			// the checksum itself so detection still triggers. The flip
			// happens on a private copy so the logged clean payload is
			// untouched.
			if len(m.data) > 0 {
				corrupted := append([]float64(nil), m.data...)
				corrupted[0] = math.Float64frombits(math.Float64bits(corrupted[0]) ^ 1)
				m.data = corrupted
			} else {
				m.crc ^= 0xDEADBEEF
			}
		case DelayMsg:
			d := f.Delay
			if d <= 0 {
				d = 10 * time.Millisecond
			}
			time.AfterFunc(d, func() { box.put(m) })
			return
		}
	}
	box.put(m)
}

// Recv blocks until a message from src with the given tag arrives and
// copies it into buf. Any failure — timeout (under the world's default
// receive deadline), CRC mismatch, size mismatch, poisoned world —
// unwinds the rank via Fail so World.Run reports it; use RecvTimeout to
// handle the error in place instead.
func (c *Comm) Recv(src, tag int, buf []float64) {
	if err := c.RecvTimeout(src, tag, buf, c.world.recvTimeout); err != nil {
		fail(err)
	}
}

// RecvTimeout receives with an explicit deadline (0 waits forever). It
// returns ErrTimeout if no matching message arrives in time, ErrCorrupt
// on a CRC mismatch, ErrSize on a length mismatch, and ErrWorldAborted
// if the world was poisoned while waiting — all wrapped with context.
//
// When the world carries a RetryPolicy, a timeout or CRC failure is not
// final: the receiver backs off (exponentially, with deterministic
// jitter) and re-requests the message from the sender's retransmit log,
// up to MaxAttempts total attempts. Only after the budget is exhausted
// does the failure surface — the failure-detector rung of the recovery
// ladder: a rank is declared suspect by escalation, never by a single
// lost packet.
func (c *Comm) RecvTimeout(src, tag int, buf []float64, d time.Duration) error {
	c.faultPoint(false)
	rp := c.world.retry
	attempts := rp.attempts()
	for a := 1; ; a++ {
		seq, err := c.recvOnce(src, tag, buf, d)
		if err == nil {
			return nil
		}
		corrupt := errors.Is(err, ErrCorrupt)
		if !corrupt && !errors.Is(err, ErrTimeout) {
			return err
		}
		if a >= attempts {
			return err
		}
		// Which message to re-request: on a CRC failure, the one just
		// delivered mangled; on a timeout, the stream's next expected
		// sequence number (the gap that blocked matching).
		want := seq
		if !corrupt {
			want = c.world.boxes[c.rank].expectedSeq(src, tag)
		}
		st := &c.world.stats[c.rank]
		st.RetxAttempts++
		rp.sleep(c.rank, a)
		if c.recvRetx(src, tag, want, buf) {
			st.RetxRecovered++
			st.MsgsRecvd++
			st.BytesRecvd += int64(len(buf) * 8)
			return nil
		}
		if c.world.aborted.Load() {
			return ErrWorldAborted
		}
	}
}

// recvOnce is a single mailbox receive attempt with CRC verification.
// The returned sequence number identifies the taken message when the
// verification failed (retransmission re-requests exactly it).
func (c *Comm) recvOnce(src, tag int, buf []float64, d time.Duration) (uint64, error) {
	m, err := c.world.boxes[c.rank].take(c.world, src, tag, d)
	if err != nil {
		return 0, err
	}
	if len(m.data) != len(buf) {
		return m.seq, fmt.Errorf("%w: from %d tag %d: sent %d, buffer %d",
			ErrSize, src, tag, len(m.data), len(buf))
	}
	if payloadCRC(m.data) != m.crc {
		return m.seq, fmt.Errorf("%w: from %d tag %d (%d values)", ErrCorrupt, src, tag, len(m.data))
	}
	// Acknowledge: the sender's retransmit log no longer needs this
	// message. The log entry was the only other reference to the payload
	// (a corrupted delivery is a private copy and failed its CRC above),
	// so once the acknowledgement has removed it the buffer is free for
	// the next sender targeting this rank; an entry the log's cap already
	// evicted is left to the garbage collector.
	box := c.world.boxes[c.rank]
	recycle := !c.world.retry.enabled() || box.ackRetx(m.src, m.tag, m.seq)
	copy(buf, m.data)
	if recycle {
		box.putBuf(m.data)
	}
	st := &c.world.stats[c.rank]
	st.MsgsRecvd++
	st.BytesRecvd += int64(len(buf) * 8)
	return m.seq, nil
}

// Request is the handle of a pending non-blocking operation. The zero
// value is a completed, successful request; IrecvInto/IsendInto
// (re)initialize caller-owned Requests so pooled hot paths issue
// non-blocking operations without allocating.
type Request struct {
	done bool
	err  error
	// Pending receive, performed by the first Wait: nil comm means no
	// deferred work (sends complete eagerly).
	comm     *Comm
	src, tag int
	buf      []float64
}

// WaitErr blocks until the operation completes and returns its outcome.
// Completing a request twice is a no-op: the second and later calls
// return the cached result of the first (MPI_Wait on an inactive
// request), which keeps retry loops and partially-drained waits safe.
func (r *Request) WaitErr() error { return r.WaitTimeout(0) }

// WaitTimeout is WaitErr with an explicit receive deadline (0 uses the
// world default). The deadline only applies to the first, completing
// call; later calls return the cached result.
func (r *Request) WaitTimeout(d time.Duration) error {
	if r.done {
		return r.err
	}
	r.done = true
	if r.comm != nil {
		c := r.comm
		if d <= 0 {
			d = c.world.recvTimeout
		}
		r.err = c.RecvTimeout(r.src, r.tag, r.buf, d)
		r.comm, r.buf = nil, nil
	}
	return r.err
}

// Wait blocks until the operation completes, unwinding the rank via
// Fail on failure. Like WaitErr it is idempotent — a second Wait is a
// no-op unless the first failed, in which case the cached error is
// re-raised.
func (r *Request) Wait() {
	if err := r.WaitErr(); err != nil {
		fail(err)
	}
}

// IsendInto starts a non-blocking send into a caller-owned request, so
// pooled hot paths (the halo exchange reuses its request slots every
// call) issue it without allocating. Delivery is eager (the runtime has
// unbounded mailboxes), so the request completes immediately; it exists
// so callers keep the issue/wait structure of the real code.
func (c *Comm) IsendInto(r *Request, dst, tag int, data []float64) {
	c.Send(dst, tag, data)
	*r = Request{done: true}
}

// IrecvInto starts a non-blocking receive into buf through a
// caller-owned request. The matching and copy happen at Wait, so
// computation placed between IrecvInto and Wait genuinely overlaps with
// message arrival — the property the redesigned bndry_exchangev (§7.6)
// exploits.
func (c *Comm) IrecvInto(r *Request, src, tag int, buf []float64) {
	*r = Request{comm: c, src: src, tag: tag, buf: buf}
}
