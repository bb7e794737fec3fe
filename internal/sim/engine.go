// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate for the whole Nectar reproduction: hardware
// components (HUB ports, DMA engines, fiber links) schedule plain events,
// while software components (CAB kernel threads, node processes) run as
// cooperative processes (Proc) whose sequential code blocks on virtual time
// and on synchronization primitives (Park/Wake, Signal, Queue).
//
// Determinism: events fire in (time, sequence) order, exactly one process
// coroutine runs at a time, and all randomness is drawn from seeded
// math/rand sources owned by individual components. Two runs with the same
// seeds produce identical event orders and identical results.
//
// # Fast path
//
// The event queue is a monomorphic 4-ary min-heap over pooled event slots:
// no interface boxing, no container/heap indirection, and near-zero
// allocations per event in steady state (slots are recycled through a free
// list; new slots are allocated in chunks). Every pending slot knows its heap
// index, so Cancel takes the event out of the heap at once and recycles its
// slot: the heap holds only events that will fire, however many timers a
// workload arms and cancels (retransmission timers almost always cancel).
package sim

import "fmt"

// Time is simulated time in nanoseconds.
type Time int64

// Convenient durations in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String formats a Time with an adaptive unit, e.g. "700ns", "26.40us".
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/1000)
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	default:
		return fmt.Sprintf("%.3fs", float64(t)/1e9)
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// slot is the pooled storage behind a scheduled event. Slots are owned by
// the engine: once the callback fires or the event is canceled the slot
// returns to the free list and is reused by a later At/After. seq is unique
// per schedule and doubles as the FIFO tie-break and the Event handle
// validity token; idx is the slot's position in the heap while it is
// pending, kept current by every sift.
type slot struct {
	at  Time
	seq uint64
	fn  func()
	idx int
}

// Event is a cancellation handle for a scheduled callback, returned by
// At/After. The zero Event is valid and refers to nothing (Cancel is a
// no-op, Canceled reports true). Handles stay safe across slot reuse: a
// handle whose event already fired or was canceled never affects the event
// currently occupying the recycled slot.
type Event struct {
	s   *slot
	seq uint64
}

// live reports whether the handle still refers to its pending event.
func (ev Event) live() bool { return ev.s != nil && ev.s.seq == ev.seq && ev.s.fn != nil }

// Canceled reports whether the event is no longer pending (it was canceled
// or has already fired).
func (ev Event) Canceled() bool { return !ev.live() }

// slotChunk is how many event slots are allocated at once when the free
// list runs dry, amortizing slot allocation to near zero per event.
const slotChunk = 64

// Engine is a discrete-event simulator.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// events is a 4-ary min-heap ordered by (at, seq) holding exactly the
	// pending events; free is the slot free list.
	events []*slot
	free   []*slot

	// procs counts live processes, used by Run to detect termination
	// versus deadlock. live tracks them by name for diagnostics.
	procs int
	live  map[*Proc]bool

	// idle holds the coroutines of finished processes, each parked until
	// GoAt hands it a new process.
	idle []*coro

	// executed counts events fired, for diagnostics and tests.
	executed uint64
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of scheduled (uncanceled) events.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	var s *slot
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		chunk := make([]slot, slotChunk)
		for i := 1; i < slotChunk; i++ {
			e.free = append(e.free, &chunk[i])
		}
		s = &chunk[0]
	}
	e.seq++
	s.at, s.seq, s.fn = t, e.seq, fn
	e.push(s)
	return Event{s: s, seq: s.seq}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Canceling an already-fired
// or already-canceled event (or the zero Event) is a no-op: handles remain
// safe even after the engine has recycled the event's storage.
func (e *Engine) Cancel(ev Event) {
	if !ev.live() {
		return
	}
	e.recycle(e.remove(ev.s.idx))
}

// recycle returns a spent slot to the free list.
func (e *Engine) recycle(s *slot) {
	s.fn = nil
	e.free = append(e.free, s)
}

// less orders slots by (time, schedule sequence): the FIFO tie-break makes
// same-time events fire in scheduling order.
func less(a, b *slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push adds a slot to the 4-ary heap.
func (e *Engine) push(s *slot) {
	e.events = append(e.events, nil)
	e.up(len(e.events)-1, s)
}

// remove takes the slot at heap index i out of the heap and returns it. The
// last entry fills the hole and sifts down, or up if it is smaller than its
// new parent; removing index 0 is the heap's pop.
func (e *Engine) remove(i int) *slot {
	h := e.events
	s := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if i < n {
		e.down(i, last)
		if last.idx == i {
			e.up(i, last)
		}
	}
	return s
}

// up places s at index i or above it, moving larger parents down.
func (e *Engine) up(i int, s *slot) {
	h := e.events
	for i > 0 {
		p := (i - 1) >> 2
		if !less(s, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = i
		i = p
	}
	h[i] = s
	s.idx = i
}

// down places s at index i or below it, moving the least of up to four
// children up.
func (e *Engine) down(i int, s *slot) {
	h := e.events
	n := len(h)
	for {
		c := i<<2 + 1 // first child
		if c >= n {
			break
		}
		m := c
		if c+1 < n && less(h[c+1], h[m]) {
			m = c + 1
		}
		if c+2 < n && less(h[c+2], h[m]) {
			m = c + 2
		}
		if c+3 < n && less(h[c+3], h[m]) {
			m = c + 3
		}
		if !less(h[m], s) {
			break
		}
		h[i] = h[m]
		h[i].idx = i
		i = m
	}
	h[i] = s
	s.idx = i
}

// step fires the next event. It reports false when no events remain.
func (e *Engine) step() bool {
	if len(e.events) == 0 {
		return false
	}
	s := e.remove(0)
	if s.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = s.at
	fn := s.fn
	e.recycle(s)
	e.executed++
	fn()
	return true
}

// Run processes events until none remain. It returns the final time.
// If live processes remain blocked with no pending events, the simulation is
// deadlocked and Run panics with a diagnostic (a silent hang would otherwise
// be indistinguishable from completion).
func (e *Engine) Run() Time {
	for e.step() {
	}
	if e.procs > 0 {
		names := ""
		for p := range e.live {
			if !p.daemon && !p.done {
				names += " " + p.name
			}
		}
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events:%s", e.procs, names))
	}
	return e.now
}

// RunUntil processes events with firing time <= t, then sets the clock to t.
// Processes may still be blocked; RunUntil does not treat that as deadlock.
func (e *Engine) RunUntil(t Time) Time {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.step()
	}
	if t > e.now {
		e.now = t
	}
	return e.now
}
