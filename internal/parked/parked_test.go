package parked

import (
	"runtime"
	"sync"
	"testing"
)

// task records what its Done was handed and signals the waiting test.
type task struct {
	body      func()
	recovered any
	wg        *sync.WaitGroup
}

func (t *task) Run()            { t.body() }
func (t *task) Done(pc any)     { t.recovered = pc; t.wg.Done() }
func (t *task) goAndWait()      { t.wg.Add(1); Go(t); t.wg.Wait() }
func newTask(body func()) *task { return &task{body: body, wg: new(sync.WaitGroup)} }

func freeRunners() int {
	pool.Lock()
	defer pool.Unlock()
	return len(pool.free)
}

// TestWarmGoAllocatesNothing: once the pool holds enough runners,
// handing out a fan-out of tasks allocates nothing, and every task runs.
func TestWarmGoAllocatesNothing(t *testing.T) {
	const n = 4
	var wg sync.WaitGroup
	var ran [n]int
	tasks := make([]task, n)
	for i := range tasks {
		tasks[i] = task{body: func() { ran[i]++ }, wg: &wg}
	}
	fan := func() {
		wg.Add(n)
		for i := range tasks {
			Go(&tasks[i])
		}
		wg.Wait()
	}
	fan() // fill the pool
	if got := testing.AllocsPerRun(20, fan); got != 0 {
		t.Errorf("warm %d-task fan-out: %.1f allocs, want 0", n, got)
	}
	for i, c := range ran {
		if c != 22 {
			t.Errorf("task %d ran %d times, want 22", i, c)
		}
	}
}

// TestGoPanicAndGoexit: a panicking task hands its value to Done and its
// runner parks again; a task that calls runtime.Goexit reports Done(nil)
// and its runner, whose goroutine is gone, is not returned; a clean task
// after them reports Done(nil).
func TestGoPanicAndGoexit(t *testing.T) {
	newTask(func() {}).goAndWait() // at least one runner parked
	before := freeRunners()

	p := newTask(func() { panic("boom") })
	p.goAndWait()
	if p.recovered != "boom" {
		t.Errorf("panicking task: Done got %v, want \"boom\"", p.recovered)
	}
	if got := freeRunners(); got != before {
		t.Errorf("after a panic: %d parked runners, want %d", got, before)
	}

	g := newTask(runtime.Goexit)
	g.goAndWait()
	if g.recovered != nil {
		t.Errorf("Goexit task: Done got %v, want nil", g.recovered)
	}
	if got := freeRunners(); got != before-1 {
		t.Errorf("after a Goexit: %d parked runners, want %d", got, before-1)
	}

	c := newTask(func() {})
	c.recovered = "stale"
	c.goAndWait()
	if c.recovered != nil {
		t.Errorf("clean task: Done got %v, want nil", c.recovered)
	}
}
