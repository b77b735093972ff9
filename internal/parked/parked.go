// Package parked keeps the process's pool of parked goroutines. A
// fan-out that runs every step — a World.Run's ranks, a StealPool.Run's
// helpers — hands each of its tasks to a parked goroutine instead of
// starting one, so a warm fan-out allocates nothing.
//
// A task carries its arguments in its own fields, not in a closure:
// passing a pointer as a Task does not allocate.
package parked

import "sync"

// Task is one unit of work for a parked goroutine.
type Task interface {
	// Run does the work.
	Run()
	// Done is called once Run has ended, with what was recovered from a
	// panic in Run: nil if Run returned or called runtime.Goexit. By
	// then the goroutine is back in the pool, unless Run called Goexit
	// (which ends the goroutine too), so a caller that waits for Done
	// finds it free for its next task.
	Done(recovered any)
}

// runner is one parked goroutine; it runs the tasks sent on wake.
type runner struct {
	wake chan Task
}

// pool holds the parked runners. Its size — and so the number of parked
// goroutines in the process — is the peak number of tasks that were
// ever running at once.
var pool struct {
	sync.Mutex
	free []*runner
}

// Go runs t on a parked goroutine, starting one if none is free.
func Go(t Task) {
	pool.Lock()
	if n := len(pool.free); n > 0 {
		r := pool.free[n-1]
		pool.free = pool.free[:n-1]
		pool.Unlock()
		r.wake <- t
		return
	}
	pool.Unlock()
	r := &runner{wake: make(chan Task, 1)}
	// Runners live as long as the process: no stop.
	go r.loop()
	r.wake <- t
}

func (r *runner) loop() {
	for t := range r.wake {
		r.run(t)
	}
}

// run runs t, parks the runner again — unless t called Goexit, which
// ends this goroutine — and then reports t done.
func (r *runner) run(t Task) {
	returned := false
	defer func() {
		pc := recover()
		if returned || pc != nil {
			pool.Lock()
			pool.free = append(pool.free, r)
			pool.Unlock()
		}
		t.Done(pc)
	}()
	t.Run()
	returned = true
}
