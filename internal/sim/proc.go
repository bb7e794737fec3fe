package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: sequential code that runs in virtual time.
//
// A Proc runs on a coroutine (iter.Pull): the engine switches to it for a
// slice and it switches straight back when it blocks (Sleep, Park, Wait,
// Queue ops, ...), so exactly one of them executes at any moment and
// scheduling is fully deterministic and cooperative. Procs are pooled per
// engine: a finished proc waits on Engine.idle with its coroutine and its
// bound resume, and Go hands it the next body.
//
// A *Proc is valid until its body returns; after that the engine may reuse
// it for another process. Resuming a proc that finished and was not reused
// panics (TestResumeOfFinishedProcPanics).
//
// All Proc methods but Wake must be called from within the process's own
// body.
type Proc struct {
	eng  *Engine
	name string

	// Owner is the spawner's record riding on the process. The engine
	// never touches it, so it survives reuse: a spawner that finds its
	// own record there from an earlier process may reset and reuse it.
	Owner any

	// pull switches to the coroutine, which runs body; yield, called on
	// the coroutine, switches back. done is set when the body returns.
	pull  func() (struct{}, bool)
	yield func(struct{}) bool
	body  func(*Proc)
	done  bool

	// daemon processes are expected to block forever (service loops);
	// they are excluded from the engine's deadlock accounting.
	daemon bool

	// resume runs the next slice; it is bound once so scheduling it
	// allocates nothing.
	resume func()

	// prev and next link the engine's live processes in spawn order.
	prev, next *Proc
}

// Name returns the process name given at Go time.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Go starts a new process at the current simulated time. The body begins
// executing when the engine reaches the start event. The returned *Proc is
// valid until the body returns.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	return e.start(e.now, name, body, false)
}

// GoDaemon starts a process excluded from deadlock accounting: a service
// loop that legitimately blocks forever (e.g. a protocol server thread).
// The returned *Proc is valid until the body returns.
func (e *Engine) GoDaemon(name string, body func(p *Proc)) *Proc {
	return e.start(e.now, name, body, true)
}

// GoAt starts a new process at absolute time t. The returned *Proc is
// valid until the body returns.
func (e *Engine) GoAt(t Time, name string, body func(p *Proc)) *Proc {
	return e.start(t, name, body, false)
}

// start takes a finished proc from the pool, or makes one, and schedules
// its first slice at t.
func (e *Engine) start(t Time, name string, body func(p *Proc), daemon bool) *Proc {
	var p *Proc
	if n := len(e.idle); n > 0 {
		p = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		p.done = false
	} else {
		p = e.newProc()
	}
	p.name, p.body, p.daemon = name, body, daemon
	e.link(p)
	if !daemon {
		e.procs++
	}
	e.At(t, p.resume)
	return p
}

// newProc makes a proc with its coroutine. The coroutine runs bodies one
// after another: when a body returns, it marks the proc done, moves it from
// the live list to Engine.idle and yields until start hands it the next
// body. A body that panics ends the coroutine: the panic surfaces from
// pull, on the engine's goroutine, and the proc never returns to the pool.
func (e *Engine) newProc() *Proc {
	p := &Proc{eng: e}
	p.resume = p.runSlice
	p.pull, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		for {
			p.body(p)
			p.body = nil
			p.done = true
			e.unlink(p)
			if !p.daemon {
				e.procs--
			}
			e.idle = append(e.idle, p)
			yield(struct{}{})
		}
	})
	return p
}

// runSlice switches to the process's coroutine and returns when it blocks
// again or finishes. Must only be called from event context. A finished
// proc has nothing to resume: a resume of one is a stale handle, which
// would run the next body early once the proc is reused.
func (p *Proc) runSlice() {
	if p.done {
		panic("sim: resume of a finished process " + p.name)
	}
	p.pull()
}

// Park blocks the process until Wake resumes it. Whoever parks must have
// arranged for that Wake: a process nobody wakes stays blocked for good.
func (p *Proc) Park() { p.yield(struct{}{}) }

// Wake schedules a parked process to resume at the current time, once per
// Park. The resume goes through the event queue, so the caller continues
// first and same-time events scheduled earlier run before the process.
// It may be called from event context or from another process.
func (p *Proc) Wake() { p.eng.At(p.eng.now, p.resume) }

// Sleep blocks the process for d nanoseconds of simulated time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	// d == 0 still yields through the event queue, so same-time events
	// scheduled earlier run first.
	p.eng.At(p.eng.now+d, p.resume)
	p.Park()
}

// Yield reschedules the process at the current time, letting other pending
// same-time events run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Signal is a broadcast/wakeup primitive for processes (a condition
// variable in virtual time). The zero value is ready to use.
type Signal struct {
	waiters FIFO[*Proc]
}

// NewSignal returns an empty Signal for the engine's processes.
func NewSignal(*Engine) *Signal { return &Signal{} }

// Waiters returns the number of processes currently blocked on the signal.
func (s *Signal) Waiters() int { return s.waiters.Len() }

// Wait blocks the process until Signal or Broadcast wakes it.
func (s *Signal) Wait(p *Proc) {
	s.waiters.Push(p)
	p.Park()
}

// Signal wakes one waiting process (FIFO), if any. The wakeup is delivered
// through the event queue, so the caller continues first.
func (s *Signal) Signal() {
	if s.waiters.Len() > 0 {
		s.waiters.Pop().Wake()
	}
}

// Broadcast wakes, in FIFO order, the processes waiting at the call.
func (s *Signal) Broadcast() {
	for n := s.waiters.Len(); n > 0; n-- {
		s.waiters.Pop().Wake()
	}
}
