package sw

import (
	"fmt"
	"iter"
	"math/bits"
	"sync"
)

// A launch runs its 64 CPE bodies as coroutines driven from the
// launching goroutine, one at a time, so the CPEs of a core group share
// the register fabric, LDMs and counters without synchronization. The
// schedule is a function of the kernel alone:
//
//   - CPEs start in id order, each running until it returns or waits.
//   - A CPE that cannot proceed — RegRecv on an empty link, RegSend on a
//     full one, a column scan whose collective is incomplete — yields the
//     id of the peer it waits on, and that peer runs next (started if it
//     has not run yet, resumed if it waits itself).
//   - A CPE that returns hands control to the most recently suspended
//     CPE; with none suspended the next unstarted id begins.
//
// A wait nothing can satisfy — on a peer that has returned, or a second
// wait with no register moved and no scan joined in between, which
// closes a cycle — is a register communication deadlock and faults the
// launch, as does a panic in a body. A faulted launch resumes every
// suspended CPE so it unwinds out of its wait, empties the fabric, and
// re-raises the first fault on the caller.

// Scheduler-side states of a CPE within one launch.
const (
	cpeReady     = iota // not started, or running
	cpeSuspended        // waiting on a peer, linked in the suspended list
	cpeReturned         // body returned (or unwound)
)

// cpeDone is what a runner yields when its body has returned; any other
// yielded value is the id of the CPE the body waits on.
const cpeDone = -1

// noCPE is the sentinel of the suspended list and the "nobody" id.
const noCPE = CPEsPerCG

// abortLaunch is the panic that unwinds a suspended CPE out of a
// faulted launch.
type abortLaunch struct{}

// runner is one resident coroutine: it runs the body of CPE id for
// every launch its crew is lent to and parks in between, so its stack
// stays grown.
type runner struct {
	cr     *crew
	id     int
	resume func() (int, bool) // switch into the coroutine until it yields
	yield  func(int) bool     // switch back to the scheduler
}

// crew is 64 runners plus the schedule state of the one launch they are
// running. Crews are not tied to a core group: Spawn borrows one from
// the package pool for the duration of a launch.
type crew struct {
	cg      *CoreGroup
	fn      func(*CPE)
	runners [CPEsPerCG]runner

	state [CPEsPerCG]uint8
	// Suspended CPEs, most recent first: an intrusive doubly linked list
	// through noCPE, so a CPE resumed out of the middle unlinks in O(1).
	next, prev [CPEsPerCG + 1]uint8
	// waitMoved[id] is fabric.moved when CPE id last suspended in this
	// launch, 0 if it has not.
	waitMoved [CPEsPerCG]uint64

	// fault is the first fault of the launch, "" while it is healthy;
	// once set the launch is aborting and every wait unwinds.
	fault string

	// The column scan collectives of the launch (see joinScan): the open
	// collective of each mesh column, reset as every launch starts (so an
	// aborted one leaves nothing behind), and each CPE's register slots —
	// its per-node block totals on joining, its carries once the
	// collective completes. The slots model registers, so they live here
	// and not in the LDM; they grow to the widest scan once per crew.
	cols     [MeshDim]colScan
	scanRegs [CPEsPerCG][]float64
}

// colScan is one mesh column's scan collective in the current launch.
type colScan struct {
	joined  uint8 // bit r: row r has joined the open collective
	reverse bool  // shape of the open collective, set by its first member
	m       int
	done    uint32 // collectives this column has completed in the launch
}

// crews is the pool of parked crews. Its size — and so the number of
// runner goroutines in the process — is the peak number of launches
// that were ever in flight at once.
var crews struct {
	sync.Mutex
	free []*crew
}

func borrowCrew() *crew {
	crews.Lock()
	if n := len(crews.free); n > 0 {
		cr := crews.free[n-1]
		crews.free = crews.free[:n-1]
		crews.Unlock()
		return cr
	}
	crews.Unlock()
	cr := &crew{}
	for i := range cr.runners {
		r := &cr.runners[i]
		r.cr, r.id = cr, i
		// Runners live as long as the process, like the pool: no stop.
		r.resume, _ = iter.Pull(r.loop)
	}
	return cr
}

func returnCrew(cr *crew) {
	crews.Lock()
	crews.free = append(crews.free, cr)
	crews.Unlock()
}

// loop is the coroutine body: one CPE body per launch, parked on the
// yield in between.
func (r *runner) loop(yield func(int) bool) {
	r.yield = yield
	for {
		r.launch()
		if !yield(cpeDone) {
			return
		}
	}
}

// launch runs this runner's CPE for the crew's current launch. A panic
// in the body becomes the launch's fault unless one is already recorded
// (which includes the abortLaunch unwinding of a faulted launch).
func (r *runner) launch() {
	cr := r.cr
	c := cr.cg.CPEs[r.id]
	defer func() {
		if p := recover(); p != nil && cr.fault == "" {
			cr.fail(c, p)
		}
	}()
	c.LDM.used = 0
	cr.fn(c)
	if ws := int64(c.LDM.used * F64Bytes); ws > c.Ctr.LDMPeak {
		c.Ctr.LDMPeak = ws
	}
}

func (cr *crew) fail(c *CPE, cause any) {
	cr.fault = fmt.Sprintf("sw: CPE(%d,%d) faulted: %v", c.Row, c.Col, cause)
}

// waitOn suspends this CPE until the scheduler resumes it, naming the
// peer whose progress it needs. The caller re-checks its condition on
// return.
func (c *CPE) waitOn(peer int) {
	cr := c.cg.crew
	if cr == nil {
		panic("sw: register communication would block outside a Spawn launch")
	}
	if cr.fault == "" {
		cr.runners[c.ID].yield(peer)
	}
	if cr.fault != "" {
		panic(abortLaunch{})
	}
}

// scanSlot returns CPE id's m register slots for a column scan.
func (cr *crew) scanSlot(id, m int) []float64 {
	if cap(cr.scanRegs[id]) < m {
		cr.scanRegs[id] = make([]float64, m)
	}
	return cr.scanRegs[id][:m]
}

// joinScan is stage 2 of a column scan: this CPE joins its mesh column's
// collective with its scan slots holding what it passes on — its block
// totals, or base+run on the head row — and returns once every row of
// the column has joined, its slots then holding its carries (the head
// row's are untouched: its carry is its base). The last member to join
// walks the chain. Until then a member waits on the lowest row that has
// not joined, so the schedule stays a function of the kernel, and a
// member that has returned without joining is a deadlock like any
// other wait on it. A join moves the collective on, so it counts as
// progress for the cycle check.
//
// Members must agree on the direction and node count. A chain link into
// a member that has joined must be empty: on hardware the member's scan
// receive would take a point-to-point register still queued there, so
// the carry must not overtake it. Registers the receiver drains before
// it joins are fine, so a sender may run ahead.
func (c *CPE) joinScan(reverse bool, m int) {
	cr := c.cg.crew
	f := c.cg.fabric
	col := &cr.cols[c.Col]
	if col.joined == 0 {
		col.reverse, col.m = reverse, m
	} else if col.reverse != reverse || col.m != m {
		panic(fmt.Sprintf("sw: column scan (%s, m=%d) joins a collective (%s, m=%d)",
			scanDir(reverse), m, scanDir(col.reverse), col.m))
	}
	prev, next := c.Row-1, c.Row+1
	if reverse {
		prev, next = next, prev
	}
	if uint(prev) < MeshDim {
		f.checkIdle(prev, c.Col, c.Row, c.Col)
	}
	if uint(next) < MeshDim && col.joined&(1<<next) != 0 {
		f.checkIdle(c.Row, c.Col, next, c.Col)
	}
	col.joined |= 1 << c.Row
	f.moved++
	if col.joined == 1<<MeshDim-1 {
		cr.walkScan(c.Col)
		return
	}
	done := col.done
	for col.done == done {
		c.waitOn(cpeID(bits.TrailingZeros8(^col.joined), c.Col))
	}
}

// walkScan runs the carry chain of column col's completed collective for
// every node in row order, carry_{r+1} = carry_r + run_r, leaving each
// non-head member's carries in its slots, and opens the column's next
// collective.
func (cr *crew) walkScan(col int) {
	cs := &cr.cols[col]
	head, step := 0, 1
	if cs.reverse {
		head, step = MeshDim-1, -1
	}
	var regs [MeshDim][]float64
	for r := range regs {
		regs[r] = cr.scanRegs[cpeID(r, col)][:cs.m]
	}
	for j := 0; j < cs.m; j++ {
		carry := regs[head][j]
		for r := head + step; uint(r) < MeshDim; r += step {
			run := regs[r][j]
			regs[r][j] = carry
			carry += run
		}
	}
	cs.joined = 0
	cs.done++
}

func scanDir(reverse bool) string {
	if reverse {
		return "up"
	}
	return "down"
}

// Spawn runs fn on all 64 CPEs (the athread_spawn / athread_join
// pattern) and returns when every CPE has. Each CPE's LDM is reset
// before fn starts, matching a fresh kernel launch. The bodies run one
// at a time on resident coroutines in the deterministic order described
// at the top of this file; host parallelism comes from launching on
// distinct core groups concurrently, which is safe.
//
// A panic on any CPE (LDM overflow, illegal register communication) or
// a register communication deadlock aborts the launch and is re-raised
// on the caller with the CPE coordinates attached; the core group is
// left with empty links, ready for the next launch. A body must not
// call runtime.Goexit (testing's FailNow/Fatal/Skip), and the caller
// must not be locked to an OS thread: the runtime only switches to a
// coroutine from the thread-lock state it was created under.
func (cg *CoreGroup) Spawn(fn func(c *CPE)) {
	if cg.crew != nil {
		panic("sw: Spawn on a core group with a launch in flight")
	}
	cr := borrowCrew()
	cr.cg, cr.fn = cg, fn
	cg.crew = cr
	cg.fabric.moved++ // never 0 in a launch: 0 is "has not waited yet" in waitMoved
	fault := cr.run()
	cg.crew = nil
	cr.cg, cr.fn = nil, nil
	returnCrew(cr)
	if fault != "" {
		cg.fabric.drain()
		panic(fault)
	}
}

// run drives one launch to completion and returns its fault, if any.
func (cr *crew) run() (fault string) {
	cr.state = [CPEsPerCG]uint8{}
	cr.waitMoved = [CPEsPerCG]uint64{}
	cr.cols = [MeshDim]colScan{}
	cr.next[noCPE], cr.prev[noCPE] = noCPE, noCPE
	for root := 0; root < CPEsPerCG; root++ {
		// With nobody suspended, every CPE that has started has returned.
		if cr.state[root] == cpeReturned {
			continue
		}
		for cur := root; cur != noCPE; {
			cur = cr.step(cur)
			if cr.fault != "" {
				return cr.abort()
			}
		}
	}
	return ""
}

// step runs CPE cur until it returns or waits, and picks who runs next.
func (cr *crew) step(cur int) int {
	if cr.state[cur] == cpeSuspended {
		cr.unlink(cur)
	}
	cr.state[cur] = cpeReady
	if cr.cg.onResume != nil {
		cr.cg.onResume(cur)
	}
	peer, _ := cr.runners[cur].resume()
	if peer == cpeDone {
		cr.state[cur] = cpeReturned
		return int(cr.next[noCPE])
	}
	moved := cr.cg.fabric.moved
	switch {
	case cr.state[peer] == cpeReturned:
		cr.deadlock(cur, peer, "which has returned")
	case cr.waitMoved[cur] == moved:
		cr.deadlock(cur, peer, "in a cycle no register moves through")
	}
	// A deadlocked CPE suspends like any other: abort unwinds it.
	cr.waitMoved[cur] = moved
	cr.state[cur] = cpeSuspended
	cr.link(cur)
	return peer
}

func (cr *crew) deadlock(cur, peer int, why string) {
	cr.fail(cr.cg.CPEs[cur], fmt.Sprintf("register communication deadlock: waiting on CPE(%d,%d), %s",
		peer/MeshDim, peer%MeshDim, why))
}

// abort unwinds every suspended CPE of a faulted launch (waitOn panics
// with abortLaunch when it is resumed) and hands back the fault, leaving
// the crew fit for its next launch. CPEs that never started stay parked.
func (cr *crew) abort() string {
	for id := int(cr.next[noCPE]); id != noCPE; id = int(cr.next[noCPE]) {
		cr.unlink(id)
		cr.runners[id].resume()
	}
	fault := cr.fault
	cr.fault = ""
	return fault
}

// link puts id at the front of the suspended list.
func (cr *crew) link(id int) {
	first := cr.next[noCPE]
	cr.next[id], cr.prev[id] = first, noCPE
	cr.prev[first] = uint8(id)
	cr.next[noCPE] = uint8(id)
}

func (cr *crew) unlink(id int) {
	p, n := cr.prev[id], cr.next[id]
	cr.next[p], cr.prev[n] = n, p
}
