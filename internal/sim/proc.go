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
// scheduling is fully deterministic and cooperative. Coroutines are pooled
// per engine: a finished proc's coroutine waits on Engine.idle and runs the
// next proc started with Go.
//
// All Proc methods but Wake must be called from within the process's own
// body.
type Proc struct {
	eng  *Engine
	name string

	// co runs the body; done is set when the body returns, after which co
	// may already be running another process.
	co   *coro
	done bool

	// daemon processes are expected to block forever (service loops);
	// they are excluded from the engine's deadlock accounting.
	daemon bool

	// resume runs the next slice; it is bound once so scheduling it
	// allocates nothing.
	resume func()
}

// Name returns the process name given at Go time.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Go starts a new process at the current simulated time. The body begins
// executing when the engine reaches the start event.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	return e.GoAt(e.now, name, body)
}

// GoDaemon starts a process excluded from deadlock accounting: a service
// loop that legitimately blocks forever (e.g. a protocol server thread).
func (e *Engine) GoDaemon(name string, body func(p *Proc)) *Proc {
	p := e.GoAt(e.now, name, body)
	p.daemon = true
	e.procs--
	return p
}

// GoAt starts a new process at absolute time t.
func (e *Engine) GoAt(t Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	e.procs++
	if e.live == nil {
		e.live = make(map[*Proc]bool)
	}
	e.live[p] = true
	p.resume = func() { e.runSlice(p) }
	if n := len(e.idle); n > 0 {
		p.co, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		p.co = e.newCoro()
	}
	p.co.p, p.co.body = p, body
	e.At(t, p.resume)
	return p
}

// coro is a pooled coroutine that runs proc bodies one after another. When
// a body returns, the coroutine marks its Proc done, puts itself on
// Engine.idle and yields until GoAt hands it the next (Proc, body) pair.
// A body that panics ends its coroutine: the panic surfaces from next, on
// the engine's goroutine, and the coroutine never returns to the pool.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc
	body  func(*Proc)
}

func (e *Engine) newCoro() *coro {
	c := &coro{}
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			p := c.p
			c.body(p)
			p.done = true
			delete(e.live, p)
			if !p.daemon {
				e.procs--
			}
			c.p, c.body = nil, nil
			e.idle = append(e.idle, c)
			yield(struct{}{})
		}
	})
	return c
}

// runSlice switches to the process's coroutine and returns when it blocks
// again or finishes. Must only be called from event context.
func (e *Engine) runSlice(p *Proc) {
	if p.done {
		return
	}
	p.co.next()
}

// Park blocks the process until Wake resumes it. Whoever parks must have
// arranged for that Wake: a process nobody wakes stays blocked for good.
func (p *Proc) Park() { p.co.yield(struct{}{}) }

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
