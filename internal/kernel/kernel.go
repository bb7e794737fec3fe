// Package kernel implements the CAB kernel (paper §6.1): lightweight
// threads similar to Mach C Threads executing as coroutines under a simple
// non-preemptive scheduler, mailboxes providing temporary buffer space for
// messages in CAB memory, and timer and memory services.
//
// "a thread will be awakened by an event (such as the arrival of a packet),
// will take some action (such as processing transport protocol headers),
// and will voluntarily go back to waiting for another event."
package kernel

import (
	"fmt"

	"repro/internal/cab"
	"repro/internal/obs"
	"repro/internal/obs/flow"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// contextSwitch is the thread-switch cost: "Thread switching takes
// between 10 and 15 microseconds; almost all of this time is spent
// saving and restoring the SPARC register windows."
const contextSwitch = 12 * sim.Microsecond

// ThreadState describes a thread's scheduling state.
type ThreadState int

// Thread states.
const (
	StateReady ThreadState = iota
	StateRunning
	StateBlocked
	StateDone
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Kernel is one CAB's kernel instance.
type Kernel struct {
	eng   *sim.Engine
	board *cab.Board

	runq sim.FIFO[*Thread]
	cur  *Thread

	// boxes tracks every mailbox for crash recovery (Reboot purges them:
	// mailbox contents live in CAB memory, which a crash loses).
	boxes []*Mailbox

	switches int64
	spawned  int64
	reboots  int64

	// live counts the threads whose bodies have not returned; daemons
	// counts every daemon thread spawned.
	live, daemons int

	// The CAB's instruments (each may be nil: disabled).
	tr    *trace.Tracer
	reg   *trace.Registry
	fr    *obs.FlightRecorder
	flows *flow.Table
	slo   *slo.Engine

	// lastDomain tracks protection-domain assignment for user tasks.
	lastDomain int
}

// New creates a kernel on the given board.
func New(board *cab.Board) *Kernel {
	return &Kernel{eng: board.Engine(), board: board}
}

// Board returns the underlying CAB board.
func (k *Kernel) Board() *cab.Board { return k.board }

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Switches returns the number of context switches performed.
func (k *Kernel) Switches() int64 { return k.switches }

// Threads returns the number of threads spawned and not yet finished, and
// the number of daemon threads ever spawned.
func (k *Kernel) Threads() (live, daemons int) { return k.live, k.daemons }

// Tracer returns the kernel's span tracer (may be nil).
func (k *Kernel) Tracer() *trace.Tracer { return k.tr }

// Registry returns the kernel's metrics registry (may be nil).
func (k *Kernel) Registry() *trace.Registry { return k.reg }

// FlightRecorder returns the CAB's flight recorder (may be nil).
func (k *Kernel) FlightRecorder() *obs.FlightRecorder { return k.fr }

// Flows returns the system flow table (may be nil).
func (k *Kernel) Flows() *flow.Table { return k.flows }

// SLO returns the SLO engine of the CAB's operations (may be nil).
func (k *Kernel) SLO() *slo.Engine { return k.slo }

// SetInstrumentation is the CAB's one instrumentation seam: it attaches
// the instruments every layer on the CAB shares (each may be nil) and
// registers the kernel's and board's metrics. Call it before datalink.New
// and transport.New, which copy the instruments they use.
func (k *Kernel) SetInstrumentation(tr *trace.Tracer, reg *trace.Registry, fr *obs.FlightRecorder, flows *flow.Table, e *slo.Engine) {
	k.tr, k.reg, k.fr, k.flows, k.slo = tr, reg, fr, flows, e
	if reg == nil {
		return
	}
	prefix := k.board.Name()
	reg.Func(prefix+".kernel.switches", func() float64 { return float64(k.switches) })
	reg.Func(prefix+".kernel.spawned", func() float64 { return float64(k.spawned) })
	reg.Func(prefix+".kernel.reboots", func() float64 { return float64(k.reboots) })
	reg.Func(prefix+".cpu.busy_ns", func() float64 { return float64(k.board.CPU.BusyTime()) })
	reg.Func(prefix+".cpu.jobs", func() float64 { return float64(k.board.CPU.JobsDone()) })
	reg.Func(prefix+".timers.armed", func() float64 { return float64(k.board.Timers.Armed()) })
	reg.Func(prefix+".timers.expired", func() float64 { return float64(k.board.Timers.Expired()) })
	for _, ch := range []cab.Channel{cab.ChanFiberOut, cab.ChanFiberIn, cab.ChanVME} {
		ch := ch
		reg.Func(prefix+".dma."+ch.String()+".bytes",
			func() float64 { return float64(k.board.DMA.Bytes(ch)) })
	}
}

// Reboot models the kernel restart after a board crash: all mailbox
// contents — message buffers in CAB memory — are lost. Threads themselves
// survive in this model (the simulation cannot unwind a blocked coroutine);
// the transport layer separately errors out their in-flight operations, so
// a blocked sender observes the crash as a failed send, not a vanished
// thread. Reboots are counted in the metrics registry.
func (k *Kernel) Reboot() {
	k.reboots++
	for _, mb := range k.boxes {
		mb.Purge()
	}
}

// Thread is a lightweight CAB kernel thread ("threads have little state
// associated with them, [so] the cost of context switching is low").
//
// A Thread rides its sim.Proc (as the proc's Owner): when the body
// returns, both go back to the engine's pool together, and a later Spawn
// on any of the engine's kernels resets and reuses them, bound callbacks
// and all. A *Thread is therefore valid until its body returns
// (TestReusedThreadStartsClean).
type Thread struct {
	k      *Kernel
	name   string
	proc   *sim.Proc
	body   func(*Thread)
	state  ThreadState
	parked bool // the process is parked in parkUntilDispatched
	runNow bool

	// switchSpan is the span of the pending context switch into this
	// thread (nil when untraced); switchedIn, bound to switchIn once, ends
	// it and wakes the thread when the switch's CPU time is spent. A thread
	// has at most one switch pending: it is dispatched only when not
	// current, and stops being current only while running.
	switchSpan *trace.Span
	switchedIn func()

	// cw is the thread's waiter: a blocked thread waits on at most one
	// Cond, so every wait reuses it. condTimedOut, bound once, is its
	// timeout.
	cw           condWaiter
	condTimedOut func()

	// timer serves Sleep and WaitTimeout, which a thread is in at most
	// one of at a time; readyFn, bound once, ends a Sleep.
	timer   cab.Timer
	readyFn func()

	// span is the thread's current trace context: sends started while it
	// is set become children of it. nil when tracing is off.
	span *trace.Span
}

// Span returns the thread's current trace context (nil if none).
func (t *Thread) Span() *trace.Span { return t.span }

// SetSpan installs a trace context and returns the previous one, so
// callers can scope a context: prev := th.SetSpan(sp); defer th.SetSpan(prev).
func (t *Thread) SetSpan(s *trace.Span) *trace.Span {
	prev := t.span
	t.span = s
	return prev
}

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// Kernel returns the owning kernel.
func (t *Thread) Kernel() *Kernel { return t.k }

// Proc returns the underlying simulation process (for use with raw sim
// primitives from within the thread body).
func (t *Thread) Proc() *sim.Proc { return t.proc }

// Spawn creates a thread and makes it ready. The body runs when the
// scheduler first dispatches it. The returned *Thread is valid until the
// body returns.
func (k *Kernel) Spawn(name string, body func(t *Thread)) *Thread {
	return k.spawn(name, body, false)
}

// SpawnDaemon creates a service thread that may block forever (e.g. a
// protocol server loop); it is excluded from simulation deadlock
// accounting. The returned *Thread is valid until the body returns.
func (k *Kernel) SpawnDaemon(name string, body func(t *Thread)) *Thread {
	return k.spawn(name, body, true)
}

func (k *Kernel) spawn(name string, body func(t *Thread), daemon bool) *Thread {
	var p *sim.Proc
	if daemon {
		p = k.eng.GoDaemon(name, runThread)
		k.daemons++
	} else {
		p = k.eng.Go(name, runThread)
	}
	t, _ := p.Owner.(*Thread)
	if t == nil {
		t = &Thread{proc: p}
		t.switchedIn = t.switchIn
		t.condTimedOut = t.timedOut
		t.readyFn = t.ready
		p.Owner = t
	}
	t.k, t.name, t.state, t.body, t.span = k, name, StateReady, body, nil
	k.spawned++
	k.live++
	k.runq.Push(t)
	k.dispatch()
	return t
}

// runThread is the body of every thread's process: it waits for the first
// dispatch, runs the thread's body and hands the CPU on.
func runThread(p *sim.Proc) {
	t := p.Owner.(*Thread)
	t.parkUntilDispatched(p)
	t.body(t)
	t.body = nil
	t.state = StateDone
	t.k.live--
	t.k.cur = nil
	t.k.dispatch()
}

// switchIn ends the pending context switch into the thread and lets it
// run, waking its process if it is parked.
func (t *Thread) switchIn() {
	t.switchSpan.End()
	t.switchSpan = nil
	t.runNow = true
	if t.parked {
		t.parked = false
		t.proc.Wake()
	}
}

// parkUntilDispatched blocks the thread's process until the scheduler runs
// it. runNow records a switch that completed before the thread parked, and
// parked tells switchedIn that there is a process to wake.
func (t *Thread) parkUntilDispatched(p *sim.Proc) {
	if !t.runNow {
		t.parked = true
		p.Park()
	}
	t.runNow = false
	t.state = StateRunning
}

// dispatch picks the next ready thread if the CPU's thread level is free,
// charging the context-switch cost.
func (k *Kernel) dispatch() {
	if k.cur != nil || k.runq.Len() == 0 {
		return
	}
	t := k.runq.Pop()
	k.cur = t
	k.switches++
	if k.tr != nil {
		t.switchSpan = k.tr.Start(nil, trace.LayerKernel, k.board.Name(), "switch:"+t.name)
	}
	k.board.CPU.Submit(cab.PrioThread, contextSwitch, t.switchedIn)
}

// ready marks a blocked thread runnable.
func (t *Thread) ready() {
	if t.state != StateBlocked {
		return
	}
	t.state = StateReady
	t.k.runq.Push(t)
	t.k.dispatch()
}

// block suspends the calling thread (which must be current) until ready()
// is called on it, letting the scheduler dispatch another thread.
func (t *Thread) block() {
	if t.k.cur != t {
		panic(fmt.Sprintf("kernel: block of non-current thread %s", t.name))
	}
	t.state = StateBlocked
	t.k.cur = nil
	t.k.dispatch()
	t.parkUntilDispatched(t.proc)
}

// Yield gives up the CPU to the next ready thread; the caller resumes after
// a round through the scheduler.
func (t *Thread) Yield() {
	t.state = StateBlocked // transiently, so ready() accepts it
	t.ready()
	t.k.cur = nil
	t.k.dispatch()
	t.parkUntilDispatched(t.proc)
}

// Compute charges d of thread-level CPU time to the calling thread
// (stretched by any interrupt-level work that arrives meanwhile).
func (t *Thread) Compute(d sim.Time) {
	t.k.board.CPU.Compute(t.proc, d)
}

// Sleep blocks the thread for d using a hardware timer.
func (t *Thread) Sleep(d sim.Time) {
	t.k.board.Timers.Arm(&t.timer, d, t.readyFn)
	t.block()
}

// condWaiter tracks one blocked thread and whether it was signaled (as
// opposed to timed out). While queued it is a link of its Cond's FIFO.
type condWaiter struct {
	t        *Thread
	c        *Cond
	next     *condWaiter
	signaled bool
}

// Cond is a condition variable for kernel threads. Signal/Broadcast may be
// called from any context, including interrupt handlers. Its waiters form
// an intrusive FIFO through the threads' own waiters, so waiting allocates
// nothing; the zero Cond has no waiters and is ready to use.
type Cond struct {
	head, tail *condWaiter
	n          int
}

// Wait blocks the calling thread until signaled.
func (c *Cond) Wait(t *Thread) {
	c.enqueue(t)
	t.block()
}

// WaitTimeout blocks until signaled or until d elapses; reports true if
// signaled. A signal cancels the timeout (see wake).
func (c *Cond) WaitTimeout(t *Thread, d sim.Time) bool {
	c.enqueue(t)
	t.k.board.Timers.Arm(&t.timer, d, t.condTimedOut)
	t.block()
	return t.cw.signaled
}

// enqueue appends t's waiter to the FIFO.
func (c *Cond) enqueue(t *Thread) {
	t.cw = condWaiter{t: t, c: c}
	if c.tail == nil {
		c.head = &t.cw
	} else {
		c.tail.next = &t.cw
	}
	c.tail = &t.cw
	c.n++
}

// dequeue unlinks w, whose predecessor in the FIFO is prev (nil: w is the
// head).
func (c *Cond) dequeue(prev, w *condWaiter) {
	if prev == nil {
		c.head = w.next
	} else {
		prev.next = w.next
	}
	if c.tail == w {
		c.tail = prev
	}
	w.next = nil
	c.n--
}

// timedOut runs when the thread's WaitTimeout expires: it unlinks the
// waiter, still queued because a signal would have canceled the timer, and
// readies the thread.
func (t *Thread) timedOut() {
	c := t.cw.c
	var prev *condWaiter
	for w := c.head; w != &t.cw; w = w.next {
		prev = w
	}
	c.dequeue(prev, &t.cw)
	t.ready()
}

// WaitUntil blocks until signaled or until the absolute virtual time
// deadline; it reports true if signaled, and false — without blocking —
// once the deadline has passed. It is the body of every "re-check the
// predicate until a deadline" loop: for !pred() { if !c.WaitUntil(t, dl) {
// give up } }.
func (c *Cond) WaitUntil(t *Thread, deadline sim.Time) bool {
	remain := deadline - t.k.eng.Now()
	return remain > 0 && c.WaitTimeout(t, remain)
}

// Signal wakes one waiting thread (FIFO).
func (c *Cond) Signal() {
	if w := c.head; w != nil {
		c.dequeue(nil, w)
		w.wake()
	}
}

// Broadcast wakes all waiting threads.
func (c *Cond) Broadcast() {
	w := c.head
	c.head, c.tail, c.n = nil, nil, 0
	for w != nil {
		next := w.next
		w.next = nil
		w.wake()
		w = next
	}
}

// wake readies a waiter already removed from its Cond.
func (w *condWaiter) wake() {
	w.signaled = true
	w.t.timer.Cancel()
	w.t.ready()
}

// Waiters returns the number of blocked threads.
func (c *Cond) Waiters() int { return c.n }

// Sem is a counting semaphore for kernel threads. Unlike Cond, posts are
// never lost: V from any context (including interrupts) increments the
// count, and P consumes it.
type Sem struct {
	count int
	avail Cond
}

// NewSem returns a semaphore with an initial count.
func (k *Kernel) NewSem(initial int) *Sem {
	return &Sem{count: initial}
}

// P decrements the semaphore, blocking while it is zero.
func (s *Sem) P(t *Thread) {
	for s.count == 0 {
		s.avail.Wait(t)
	}
	s.count--
}

// TryP decrements the semaphore without blocking; it reports false when
// the count is zero. Callable from any context, including interrupts.
func (s *Sem) TryP() bool {
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// V increments the semaphore and wakes one waiter. Callable from any
// context.
func (s *Sem) V() {
	s.count++
	s.avail.Signal()
}

// Count returns the current value.
func (s *Sem) Count() int { return s.count }
