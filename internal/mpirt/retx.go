package mpirt

import "time"

// Bounded retransmission — the lowest rung of the recovery ladder. A
// real interconnect does not declare a node dead because one packet was
// mangled: the NIC retries from its send queue a bounded number of
// times first. This file models that: every Send logs its clean payload
// in a per-destination retransmit log before fault injection applies,
// and a receiver whose attempt ends in ErrTimeout or ErrCorrupt backs
// off and pulls the logged copy instead of aborting the world. Only
// when the attempt budget is exhausted does the failure escalate to the
// supervisor (core.ResilientJob), which owns the higher rungs.

// retxLogCap bounds the per-destination retransmit log. Logged messages
// are acknowledged (removed) as soon as they are received, so the log
// only holds in-flight traffic; the cap is a backstop against a
// receiver that stops consuming.
const retxLogCap = 1024

// RetryPolicy configures bounded retransmission for a World. The zero
// value disables it (a single attempt, the historical instant-escalate
// behaviour).
type RetryPolicy struct {
	// MaxAttempts is the total number of delivery attempts per receive
	// (1 or less = no retries).
	MaxAttempts int
	// Backoff is the base delay before the first retransmission;
	// subsequent attempts double it. Zero defaults to 200µs.
	Backoff time.Duration
}

// DefaultRetryPolicy is the ladder-mode failure detector: up to three
// delivery attempts with a 200µs base backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, Backoff: 200 * time.Microsecond}
}

func (rp RetryPolicy) enabled() bool { return rp.MaxAttempts > 1 }

func (rp RetryPolicy) attempts() int {
	if rp.MaxAttempts < 1 {
		return 1
	}
	return rp.MaxAttempts
}

// sleep blocks for the attempt's backoff: base * 2^(attempt-1) plus a
// deterministic jitter derived from (rank, attempt), so concurrent
// retries desynchronize without introducing nondeterminism into the
// schedule a seeded chaos test replays.
func (rp RetryPolicy) sleep(rank, attempt int) {
	base := rp.Backoff
	if base <= 0 {
		base = 200 * time.Microsecond
	}
	d := base << uint(attempt-1)
	// Weyl-sequence jitter in [0, base/2): cheap, stateless, and the
	// same for the same (rank, attempt) every run.
	h := uint64(rank)*0x9E3779B97F4A7C15 + uint64(attempt)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	if half := int64(base) / 2; half > 0 {
		d += time.Duration(int64(h % uint64(half)))
	}
	time.Sleep(d)
}

// SetRetry attaches a retransmission policy to the world. Set it before
// Run.
func (w *World) SetRetry(rp RetryPolicy) { w.retry = rp }

// logRetx appends a clean copy of m to this destination's retransmit
// log. Called by Send before fault injection, under no additional
// copying: m.data is never mutated after this point (faults corrupt a
// private copy).
func (b *mailbox) logRetx(m message) {
	b.mu.Lock()
	if len(b.retx) >= retxLogCap {
		b.retx = b.retx[1:]
	}
	b.retx = append(b.retx, m)
	b.mu.Unlock()
}

// ackRetx drops a successfully delivered message from the log and
// reports whether it was still there.
func (b *mailbox) ackRetx(src, tag int, seq uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.retx {
		if b.retx[i].src == src && b.retx[i].tag == tag && b.retx[i].seq == seq {
			b.retx = append(b.retx[:i], b.retx[i+1:]...)
			return true
		}
	}
	return false
}

// expectedSeq reports the next sequence number the (src, tag) stream
// will deliver — the gap a timed-out receive is stuck on.
func (b *mailbox) expectedSeq(src, tag int) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextSeq[seqKey{src, tag}]
}

// recvRetx attempts to deliver the logged clean copy of exactly message
// seq of the (src, tag) stream into buf — the retransmission. On
// success the entry is consumed and the stream's expected sequence
// number advanced past it, so the delayed original (if it ever arrives)
// is discarded as stale by the mailbox instead of being delivered
// twice. The payload is never recycled from here: that original, in
// flight or queued, still references it.
func (c *Comm) recvRetx(src, tag int, seq uint64, buf []float64) bool {
	b := c.world.boxes[c.rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.retx {
		m := b.retx[i]
		if m.src != src || m.tag != tag || m.seq != seq || len(m.data) != len(buf) {
			continue
		}
		b.retx = append(b.retx[:i], b.retx[i+1:]...)
		if k := (seqKey{src, tag}); b.nextSeq[k] <= seq {
			b.nextSeq[k] = seq + 1
		}
		copy(buf, m.data)
		return true
	}
	return false
}
