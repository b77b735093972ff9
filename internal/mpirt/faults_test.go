package mpirt

import (
	"errors"
	"testing"
	"time"
)

// runBounded runs fn through w and fails the test if Run does not return
// within the deadline — the guard that turns a deadlock into a test
// failure instead of a hung suite.
func runBounded(t *testing.T, w *World, d time.Duration, fn func(c *Comm)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("World.Run did not return within %v (deadlock)", d)
		return nil
	}
}

// Regression: one rank panics while another blocks in Recv. Before the
// resilience work this deadlocked forever (the dead rank's message never
// arrives and nothing wakes the receiver); now the world is poisoned and
// Run returns promptly, naming the panicking rank.
func TestRankPanicUnblocksPeersInRecv(t *testing.T) {
	w := NewWorld(3)
	err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		switch c.Rank() {
		case 0:
			panic("injected bug")
		case 1:
			c.Recv(0, 7, make([]float64, 4)) // message that will never come
		case 2:
			c.Barrier() // a barrier the dead rank never enters
		}
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("Run returned %v, want *RunError", err)
	}
	if re.Rank != 0 || !errors.Is(err, ErrPanic) {
		t.Fatalf("root cause misattributed: %v", err)
	}
}

// A rank that dies from an injected kill must also unblock peers stuck
// in collectives (which are built on the same mailboxes).
func TestKillUnblocksCollectives(t *testing.T) {
	plan := NewFaultPlan(4).Add(Fault{Rank: 2, AfterOp: 1, Kind: KillRank})
	w := NewWorld(4)
	w.SetFaults(plan)
	err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		c.AllreduceScalar(OpSum, float64(c.Rank()))
	})
	var re *RunError
	if !errors.As(err, &re) || re.Rank != 2 || !errors.Is(err, ErrKilled) {
		t.Fatalf("kill not reported: %v", err)
	}
	if len(plan.Pending()) != 0 {
		t.Errorf("fault did not fire: %v", plan.Pending())
	}
}

func TestCorruptionDetectedByCRC(t *testing.T) {
	plan := NewFaultPlan(2).Add(Fault{Rank: 0, AfterOp: 1, Kind: CorruptMsg})
	w := NewWorld(2)
	w.SetFaults(plan)
	err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			if err := c.RecvErr(0, 3, buf); !errors.Is(err, ErrCorrupt) {
				t.Errorf("corruption undetected: err=%v buf=%v", err, buf)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDroppedMessageTimesOut(t *testing.T) {
	plan := NewFaultPlan(2).Add(Fault{Rank: 0, AfterOp: 1, Kind: DropMsg})
	w := NewWorld(2)
	w.SetFaults(plan)
	err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1})
		} else {
			err := c.RecvTimeout(0, 3, make([]float64, 1), 50*time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				t.Errorf("dropped message gave %v, want ErrTimeout", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A delayed message arrives late but intact: no error if the receive
// deadline is longer than the injected delay.
func TestDelayedMessageArrivesIntact(t *testing.T) {
	plan := NewFaultPlan(2).Add(Fault{Rank: 0, AfterOp: 1, Kind: DelayMsg, Delay: 20 * time.Millisecond})
	w := NewWorld(2)
	w.SetFaults(plan)
	err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{42})
		} else {
			buf := make([]float64, 1)
			if err := c.RecvTimeout(0, 3, buf, 10*time.Second); err != nil || buf[0] != 42 {
				t.Errorf("delayed message: err=%v buf=%v", err, buf)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The world-default receive deadline turns a peer that stopped sending
// into ErrTimeout on the plain Recv path (no per-call deadline needed).
func TestWorldDefaultRecvTimeout(t *testing.T) {
	w := NewWorld(2)
	w.SetRecvTimeout(50 * time.Millisecond)
	err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		if c.Rank() == 1 {
			c.Recv(0, 9, make([]float64, 1)) // rank 0 never sends
		}
	})
	var re *RunError
	if !errors.As(err, &re) || re.Rank != 1 || !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout not reported: %v", err)
	}
}

// IrecvInto's Wait goes through the same deadline and CRC machinery.
func TestIrecvWaitTimeout(t *testing.T) {
	w := NewWorld(2)
	err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		if c.Rank() == 1 {
			var r Request
			c.IrecvInto(&r, 0, 9, make([]float64, 1))
			if err := r.WaitTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Errorf("WaitTimeout gave %v", err)
			}
			// Cached outcome on re-Wait.
			if err := r.WaitErr(); !errors.Is(err, ErrTimeout) {
				t.Errorf("cached outcome lost: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Fault explicitly unwinds a rank with a caller-detected error; peers
// blocked in Recv unblock with ErrWorldAborted and the root cause wins.
func TestFailPoisonsWorld(t *testing.T) {
	sentinel := errors.New("application-level blowup")
	w := NewWorld(3)
	err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		if c.Rank() == 0 {
			Fail(sentinel)
		}
		c.Recv(0, 1, make([]float64, 1))
	})
	var re *RunError
	if !errors.As(err, &re) || re.Rank != 0 || !errors.Is(err, sentinel) {
		t.Fatalf("root cause misattributed: %v", err)
	}
}

// Op counters persist across worlds sharing a plan, so a retry does not
// re-fire an already-fired fault.
func TestFaultPlanPersistsAcrossWorlds(t *testing.T) {
	plan := NewFaultPlan(2).Add(Fault{Rank: 0, AfterOp: 2, Kind: KillRank})
	job := func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			c.Recv(0, 1, make([]float64, 1))
			c.Recv(0, 2, make([]float64, 1))
		}
	}
	w1 := NewWorld(2)
	w1.SetFaults(plan)
	if err := runBounded(t, w1, 30*time.Second, job); !errors.Is(err, ErrKilled) {
		t.Fatalf("first world: %v", err)
	}
	if plan.Ops(0) == 0 {
		t.Fatal("op counter not advanced")
	}
	// Retry with the same plan: the kill already fired, so this passes.
	w2 := NewWorld(2)
	w2.SetFaults(plan)
	if err := runBounded(t, w2, 30*time.Second, job); err != nil {
		t.Fatalf("retry still failing: %v", err)
	}
}

func TestChaosPlanDeterministic(t *testing.T) {
	a := NewChaosPlan(7, 4, 100, 10).Pending()
	b := NewChaosPlan(7, 4, 100, 10).Pending()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("chaos plan sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chaos plans diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := NewChaosPlan(8, 4, 100, 10).Pending()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical plans")
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("kill:1@200, corrupt:0@450,drop:2@10,delay:2@300:15", 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Pending()
	want := []Fault{
		{Rank: 0, AfterOp: 450, Kind: CorruptMsg},
		{Rank: 1, AfterOp: 200, Kind: KillRank},
		{Rank: 2, AfterOp: 10, Kind: DropMsg},
		{Rank: 2, AfterOp: 300, Kind: DelayMsg, Delay: 15 * time.Millisecond},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d faults, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if p, err := ParseFaultPlan("chaos:5@42", 3, 200); err != nil || len(p.Pending()) != 5 {
		t.Errorf("chaos spec: %v, %d faults", err, len(p.Pending()))
	}
	for _, bad := range []string{"boom:1@2", "kill:9@2", "kill:1", "delay:1@2", "kill:1@2:3", "chaos:x@1"} {
		if _, err := ParseFaultPlan(bad, 3, 100); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// Stats must tolerate probing a rank id that does not exist (e.g. a
// supervisor iterating over a stale world size).
func TestStatsBoundsChecked(t *testing.T) {
	w := NewWorld(2)
	if s := w.Stats(-1); s != (Stats{}) {
		t.Errorf("Stats(-1) = %+v", s)
	}
	if s := w.Stats(2); s != (Stats{}) {
		t.Errorf("Stats(2) = %+v", s)
	}
}

// After an abort, late operations on the dead world fail fast instead of
// queueing into mailboxes nobody will ever drain.
func TestSendOnAbortedWorldFails(t *testing.T) {
	w := NewWorld(2)
	err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		if c.Rank() == 0 {
			Fail(ErrKilled)
		}
		c.Barrier() // unblocked by the poison
		c.Send(0, 1, []float64{1})
	})
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("root cause: %v", err)
	}
}
