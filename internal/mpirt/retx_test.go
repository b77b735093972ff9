package mpirt

import (
	"errors"
	"testing"
	"time"
	"unsafe"
)

// retryWorld builds a 2-rank world with the given fault plan and the
// default ladder retry policy, with a short receive deadline so lost
// messages surface quickly.
func retryWorld(p *FaultPlan) *World {
	w := NewWorld(2)
	if p != nil {
		w.SetFaults(p)
	}
	w.SetRecvTimeout(50 * time.Millisecond)
	w.SetRetry(RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond})
	return w
}

func TestRetryRecoversCorruptMessage(t *testing.T) {
	p := NewFaultPlan(2).Add(Fault{Rank: 0, AfterOp: 1, Kind: CorruptMsg})
	w := retryWorld(p)
	payload := []float64{1.5, -2.25, 3.125}
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, payload)
			return
		}
		buf := make([]float64, len(payload))
		if err := c.RecvErr(0, 7, buf); err != nil {
			t.Errorf("receive not recovered: %v", err)
			return
		}
		for i := range buf {
			if buf[i] != payload[i] {
				t.Errorf("buf[%d] = %v, want %v (clean copy)", i, buf[i], payload[i])
			}
		}
	})
	if err != nil {
		t.Fatalf("world aborted despite retransmission: %v", err)
	}
	if got := w.Stats(1).RetxRecovered; got != 1 {
		t.Errorf("RetxRecovered = %d, want 1", got)
	}
	if got := w.Stats(1).RetxAttempts; got < 1 {
		t.Errorf("RetxAttempts = %d, want >= 1", got)
	}
}

func TestRetryRecoversDroppedMessage(t *testing.T) {
	p := NewFaultPlan(2).Add(Fault{Rank: 0, AfterOp: 1, Kind: DropMsg})
	w := retryWorld(p)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{42})
			return
		}
		buf := make([]float64, 1)
		if err := c.RecvErr(0, 7, buf); err != nil {
			t.Errorf("receive not recovered: %v", err)
			return
		}
		if buf[0] != 42 {
			t.Errorf("got %v, want 42", buf[0])
		}
	})
	if err != nil {
		t.Fatalf("world aborted despite retransmission: %v", err)
	}
	if got := w.Stats(1).RetxRecovered; got != 1 {
		t.Errorf("RetxRecovered = %d, want 1", got)
	}
}

// TestRetryDiscardsLateDuplicate delays a message past the receive
// deadline so it is recovered from the retransmit log, then checks the
// eventually-arriving original is discarded rather than delivered in
// place of the next message on the same (src, tag) stream.
func TestRetryDiscardsLateDuplicate(t *testing.T) {
	p := NewFaultPlan(2).Add(Fault{Rank: 0, AfterOp: 1, Kind: DelayMsg, Delay: 100 * time.Millisecond})
	w := retryWorld(p)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1}) // delayed beyond the 50ms deadline
			// Let the delayed original arrive (as a late duplicate, after
			// the receiver recovered it from the log), then send the next
			// message on the same stream.
			time.Sleep(250 * time.Millisecond)
			c.Send(1, 7, []float64{2})
			return
		}
		buf := make([]float64, 1)
		if err := c.RecvErr(0, 7, buf); err != nil || buf[0] != 1 {
			t.Errorf("first receive: got %v, err %v; want 1 via retransmit", buf[0], err)
		}
		// By now the late duplicate of message 1 sits in the mailbox
		// ahead of message 2: the dedup must skip it.
		time.Sleep(300 * time.Millisecond)
		if err := c.RecvTimeout(0, 7, buf, 2*time.Second); err != nil || buf[0] != 2 {
			t.Errorf("second receive: got %v, err %v; want 2 (duplicate discarded)", buf[0], err)
		}
	})
	if err != nil {
		t.Fatalf("world aborted: %v", err)
	}
}

// TestRetryBudgetExhaustionEscalates: when no retransmission can help
// (the peer never sent anything), the attempt budget runs out and the
// timeout surfaces — the detector escalates instead of retrying forever.
func TestRetryBudgetExhaustionEscalates(t *testing.T) {
	w := NewWorld(2)
	w.SetRetry(RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond})
	done := make(chan error, 1)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			buf := make([]float64, 1)
			done <- c.RecvTimeout(0, 7, buf, 10*time.Millisecond)
		}
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	recvErr := <-done
	if !errors.Is(recvErr, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout after budget exhaustion", recvErr)
	}
	if got := w.Stats(1).RetxAttempts; got != 2 {
		t.Errorf("RetxAttempts = %d, want 2 (attempts 2 and 3)", got)
	}
	if got := w.Stats(1).RetxRecovered; got != 0 {
		t.Errorf("RetxRecovered = %d, want 0", got)
	}
}

// TestRetryDisabledKeepsInstantEscalation pins the historical default:
// without a policy, the first CRC failure surfaces immediately.
func TestRetryDisabledKeepsInstantEscalation(t *testing.T) {
	p := NewFaultPlan(2).Add(Fault{Rank: 0, AfterOp: 1, Kind: CorruptMsg})
	w := NewWorld(2)
	w.SetFaults(p)
	var got error
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1})
			return
		}
		got = c.RecvErr(0, 7, make([]float64, 1))
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	if !errors.Is(got, ErrCorrupt) {
		t.Fatalf("got %v, want immediate ErrCorrupt with retry disabled", got)
	}
}

// TestRetryAttributionSurvivesRetransmission: with retransmission
// absorbing message faults, a genuine rank death must still be
// attributed to the faulty rank, not to the peers that time out on it.
func TestRetryAttributionSurvivesRetransmission(t *testing.T) {
	p := NewFaultPlan(3).
		Add(Fault{Rank: 0, AfterOp: 1, Kind: CorruptMsg}).
		Add(Fault{Rank: 2, AfterOp: 2, Kind: KillRank})
	w := NewWorld(3)
	w.SetFaults(p)
	w.SetRecvTimeout(50 * time.Millisecond)
	w.SetRetry(RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond})
	err := w.Run(func(c *Comm) {
		// Ring exchange, two rounds: rank 0's corrupt send is recovered;
		// rank 2 dies at its second op and poisons the world.
		buf := make([]float64, 1)
		for round := 0; round < 2; round++ {
			c.Send((c.Rank()+1)%3, 7, []float64{float64(c.Rank())})
			c.Recv((c.Rank()+2)%3, 7, buf)
		}
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RunError", err)
	}
	if re.Rank != 2 {
		t.Fatalf("fault attributed to rank %d, want 2 (the killed rank)", re.Rank)
	}
	if !errors.Is(re.Err, ErrKilled) {
		t.Fatalf("cause = %v, want ErrKilled", re.Err)
	}
}

func TestFaultPlanShrink(t *testing.T) {
	p := NewFaultPlan(4).
		Add(Fault{Rank: 0, AfterOp: 10, Kind: CorruptMsg}).
		Add(Fault{Rank: 1, AfterOp: 5, Kind: KillRank}).
		Add(Fault{Rank: 1, AfterOp: 50, Kind: DropMsg}).
		Add(Fault{Rank: 3, AfterOp: 20, Kind: DelayMsg, Delay: time.Millisecond})
	// Fire rank 1's kill so it counts as already-fired.
	p.ops[1] = 4
	if f := p.fire(1, false); f == nil || f.Kind != KillRank {
		t.Fatalf("setup: expected rank 1 kill to fire, got %+v", f)
	}
	p.ops[3] = 7

	q := p.Shrink(1)
	if len(q.ops) != 3 {
		t.Fatalf("shrunk plan has %d ranks, want 3", len(q.ops))
	}
	if q.Ops(0) != p.Ops(0) || q.Ops(1) != p.Ops(2) || q.Ops(2) != p.Ops(3) {
		t.Errorf("op counters not shifted: %v vs %v", q.ops, p.ops)
	}
	pending := q.Pending()
	if len(pending) != 2 {
		t.Fatalf("pending after shrink: %+v, want rank0 corrupt + rank2 delay", pending)
	}
	if pending[0].Rank != 0 || pending[0].Kind != CorruptMsg {
		t.Errorf("pending[0] = %+v", pending[0])
	}
	if pending[1].Rank != 2 || pending[1].Kind != DelayMsg {
		t.Errorf("pending[1] = %+v (rank 3 should have shifted to 2)", pending[1])
	}
}

// retryPair builds a 2-rank world under the ladder's retry policy and
// hands back both ranks' handles, to be driven in lockstep from one
// goroutine: every Send lands before its Recv looks, so the test sees
// exactly which buffer carried which message.
func retryPair(p *FaultPlan) (w *World, tx, rx *Comm) {
	w = NewWorld(2)
	if p != nil {
		w.SetFaults(p)
	}
	w.SetRetry(DefaultRetryPolicy())
	w.SetRecvTimeout(20 * time.Millisecond)
	return w, &Comm{world: w, rank: 0}, &Comm{world: w, rank: 1}
}

// TestRetxPayloadNotRecycledWhileLogged: with retransmission on, Send
// draws payload buffers from the destination's freelist, and a buffer
// may come back only once nothing else refers to it. One stream takes a
// corrupted, a dropped and a delayed message, then 64 clean ones that
// churn the freelist: every delivery — retransmitted or not — must
// equal what was sent, and the delayed original, which lands late and is
// discarded as stale, must never have lent its buffer to a later sender.
func TestRetxPayloadNotRecycledWhileLogged(t *testing.T) {
	const tag, words = 7, 16
	plan := NewFaultPlan(2).
		Add(Fault{Rank: 0, AfterOp: 2, Kind: CorruptMsg}).
		Add(Fault{Rank: 0, AfterOp: 3, Kind: DropMsg}).
		Add(Fault{Rank: 0, AfterOp: 4, Kind: DelayMsg, Delay: 80 * time.Millisecond})
	w, tx, rx := retryPair(plan)
	box := w.boxes[1]

	payload := func(i int) []float64 {
		p := make([]float64, words)
		for k := range p {
			p[k] = float64(1000*i + k)
		}
		return p
	}
	buf := make([]float64, words)
	recv := func(i int) {
		t.Helper()
		if err := rx.RecvErr(0, tag, buf); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		for k, v := range payload(i) {
			if buf[k] != v {
				t.Fatalf("message %d delivered [%d] = %v, sent %v", i, k, buf[k], v)
			}
		}
	}

	// Message 0 is clean and warms the freelist; 1 is corrupted on the
	// wire, 2 dropped, 3 delayed past the receive deadline. All three
	// arrive through the retransmit log.
	for i := 0; i <= 3; i++ {
		tx.Send(1, tag, payload(i))
		recv(i)
	}
	if got := w.Stats(1).RetxRecovered; got != 3 {
		t.Fatalf("RetxRecovered = %d, want 3 (corrupt, drop, delay)", got)
	}

	// Wait for the delayed original to land; it is the only pending
	// message.
	var late *float64
	for deadline := time.Now().Add(2 * time.Second); late == nil; {
		box.mu.Lock()
		if len(box.pending) == 1 && box.pending[0].seq == 3 {
			late = unsafe.SliceData(box.pending[0].data)
		}
		box.mu.Unlock()
		if late == nil {
			if time.Now().After(deadline) {
				t.Fatal("the delayed original never arrived")
			}
			time.Sleep(time.Millisecond)
		}
	}

	reused := false
	var prev *float64
	for i := 4; i < 4+64; i++ {
		tx.Send(1, tag, payload(i))
		box.mu.Lock()
		m := box.pending[len(box.pending)-1]
		carrier := unsafe.SliceData(m.data)
		logged := len(box.retx) == 1 && unsafe.SliceData(box.retx[0].data) == carrier
		box.mu.Unlock()
		if carrier == late {
			t.Fatalf("message %d was sent in the buffer the delayed original still holds", i)
		}
		if !logged {
			t.Fatalf("message %d: the retransmit log does not hold exactly its payload", i)
		}
		reused = reused || carrier == prev
		prev = carrier
		recv(i)
	}
	if !reused {
		t.Error("no payload buffer was ever recycled with retransmission on")
	}
	box.mu.Lock()
	defer box.mu.Unlock()
	if len(box.pending) != 0 || len(box.retx) != 0 {
		t.Errorf("%d pending and %d logged messages left; the stale original should be gone and every delivery acknowledged",
			len(box.pending), len(box.retx))
	}
	for _, f := range box.free {
		if unsafe.SliceData(f) == late {
			t.Error("the stale original's buffer reached the freelist")
		}
	}
}
