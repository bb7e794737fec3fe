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
// The event queue is a monotone radix queue over pooled event slots: no
// interface boxing, and near-zero allocations per event in steady state
// (slots are recycled through a free list; new slots are allocated in
// chunks). It relies on the queue only moving forward: every key pushed,
// (time, sequence), is at least the last key taken. Slots sit in 64
// buckets by the highest bit in which their time differs from the last
// minimum, so a push is an append, and each slot is moved to a lower bucket
// at most a few times before it fires. Bucket 0 holds the events due at the
// last minimum in sequence order. Every pending slot knows its bucket and
// index, so Cancel takes the event out at once and recycles its slot:
// however many timers a workload arms and cancels (retransmission timers
// almost always cancel), the queue holds only events that will fire.
//
// Two invariants keep the order exact. The minimum moves only to an event
// that is due, so it never passes the clock and At(Now()) after RunUntil
// files at or above it (TestEngineMatchesBaselineOnRandomSchedules). Bucket
// 0 is emptied as soon as its last pending event fires, so a chain of events
// at one instant reuses its storage (TestSameInstantChainAllocatesNothing).
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

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
// validity token; bucket and idx are the slot's position in the queue while
// it is pending.
type slot struct {
	at     Time
	seq    uint64
	fn     func()
	bucket int32
	idx    int32
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

	// The queue is a monotone radix queue of the pending slots. last is
	// the time of the last minimum taken, and a slot due at t sits in
	// bucket bits.Len64(t ^ last). Bucket 0 holds the slots due at last in
	// seq order, with a nil in place of each canceled one; head is its
	// first pending entry. mask has bit b set when bucket b is not empty,
	// and pending counts the slots in the queue. free is the slot free
	// list.
	last    Time
	buckets [64][]*slot
	head    int
	mask    uint64
	pending int
	free    []*slot

	// procs counts live non-daemon processes, used by Run to detect
	// termination versus deadlock. firstLive and lastLive end the list of
	// all live processes in spawn order, nlive long, which Run's deadlock
	// diagnostic walks.
	procs               int
	firstLive, lastLive *Proc
	nlive               int

	// idle holds finished processes, each with its coroutine parked until
	// start hands it a new body.
	idle []*Proc

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
func (e *Engine) Pending() int { return e.pending }

// Live returns the number of processes started and not yet finished,
// daemons included.
func (e *Engine) Live() int { return e.nlive }

// Idle returns the number of finished processes waiting for reuse.
func (e *Engine) Idle() int { return len(e.idle) }

// link appends p to the live list.
func (e *Engine) link(p *Proc) {
	p.prev = e.lastLive
	if e.lastLive == nil {
		e.firstLive = p
	} else {
		e.lastLive.next = p
	}
	e.lastLive = p
	e.nlive++
}

// unlink takes p out of the live list.
func (e *Engine) unlink(p *Proc) {
	if p.prev == nil {
		e.firstLive = p.next
	} else {
		p.prev.next = p.next
	}
	if p.next == nil {
		e.lastLive = p.prev
	} else {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
	e.nlive--
}

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
	e.file(s)
	e.pending++
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
	s := ev.s
	if s.bucket == 0 {
		// Bucket 0 is in seq order, so the hole stays.
		e.buckets[0][s.idx] = nil
		if int(s.idx) == e.head {
			e.skip()
		}
	} else {
		b := e.buckets[s.bucket]
		n := len(b) - 1
		b[s.idx] = b[n]
		b[s.idx].idx = s.idx
		e.buckets[s.bucket] = b[:n]
		if n == 0 {
			e.mask &^= 1 << s.bucket
		}
	}
	e.pending--
	e.recycle(s)
}

// recycle returns a spent slot to the free list.
func (e *Engine) recycle(s *slot) {
	s.fn = nil
	e.free = append(e.free, s)
}

// file puts s into the bucket of its time. Every pending time is at least
// last, and a slot due at last has the largest seq yet, so appending keeps
// bucket 0 in seq order.
func (e *Engine) file(s *slot) {
	b := bits.Len64(uint64(s.at ^ e.last))
	s.bucket, s.idx = int32(b), int32(len(e.buckets[b]))
	e.buckets[b] = append(e.buckets[b], s)
	e.mask |= 1 << b
}

// skip moves head past canceled entries. When bucket 0 has none left it is
// emptied at once, so events that keep scheduling at one instant reuse its
// storage instead of appending forever.
func (e *Engine) skip() {
	b := e.buckets[0]
	for e.head < len(b) && b[e.head] == nil {
		e.head++
	}
	if e.head == len(b) {
		e.buckets[0], e.head = b[:0], 0
		e.mask &^= 1
	}
}

// next takes the earliest pending event out of the queue and returns it, if
// it is due by limit; otherwise it returns nil and leaves the queue as it
// is. When bucket 0 is empty, the lowest other bucket's minimum becomes
// last and that bucket is spread into the buckets below it. last moves only
// to an event that is due, so it never passes the clock: a later At(now)
// files at or above it.
func (e *Engine) next(limit Time) *slot {
	if e.mask&1 == 0 {
		if e.mask == 0 {
			return nil
		}
		b := bits.TrailingZeros64(e.mask)
		spread := e.buckets[b]
		if len(spread) == 1 { // a lone minimum leaves at once
			s := spread[0]
			if s.at > limit {
				return nil
			}
			e.last = s.at
			e.buckets[b] = spread[:0]
			e.mask &^= 1 << b
			e.pending--
			return s
		}
		m := spread[0].at
		for _, s := range spread[1:] {
			m = min(m, s.at)
		}
		if m > limit {
			return nil
		}
		e.last = m
		e.buckets[b] = spread[:0]
		e.mask &^= 1 << b
		for _, s := range spread {
			e.file(s)
		}
		if b0 := e.buckets[0]; len(b0) > 1 {
			slices.SortFunc(b0, func(x, y *slot) int { return cmp.Compare(x.seq, y.seq) })
			for i, s := range b0 {
				s.idx = int32(i)
			}
		}
	} else if e.last > limit {
		return nil
	}
	s := e.buckets[0][e.head]
	e.head++
	e.skip()
	e.pending--
	return s
}

// step fires the next event if it is due by limit, and reports whether it
// fired one.
func (e *Engine) step(limit Time) bool {
	s := e.next(limit)
	if s == nil {
		return false
	}
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
// deadlocked and Run panics with a diagnostic that names them in spawn
// order (a silent hang would otherwise be indistinguishable from
// completion).
func (e *Engine) Run() Time {
	for e.step(math.MaxInt64) {
	}
	if e.procs > 0 {
		names := ""
		for p := e.firstLive; p != nil; p = p.next {
			if !p.daemon {
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
	for e.step(t) {
	}
	if t > e.now {
		e.now = t
	}
	return e.now
}
