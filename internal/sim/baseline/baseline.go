// Package baseline preserves the pre-optimization event loop of
// internal/sim: an interface{}-boxed container/heap binary heap with one
// Event allocation per schedule. It exists only as the reference the
// engine equivalence tests (../equiv_test.go) replay against: the radix
// queue over pooled slots must fire events in exactly the same order. Nothing outside
// tests imports it; do not use it in models.
package baseline

import (
	"container/heap"
	"fmt"

	"repro/internal/sim"
)

// Event is a scheduled callback in the baseline engine.
type Event struct {
	at  sim.Time
	seq uint64
	fn  func()
}

// Time returns the scheduled fire time.
func (ev *Event) Time() sim.Time { return ev.at }

// Canceled reports whether the event was canceled (or already fired).
func (ev *Event) Canceled() bool { return ev.fn == nil }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is the baseline discrete-event loop (events only — no process
// support; the models never run on it).
type Engine struct {
	now      sim.Time
	seq      uint64
	events   eventHeap
	executed uint64
}

// NewEngine returns an empty baseline engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() sim.Time { return e.now }

// Executed returns the number of events fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// At schedules fn at absolute time t.
func (e *Engine) At(t sim.Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("baseline: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("baseline: nil event function")
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.events, ev)
	return ev
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d sim.Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("baseline: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing.
func (e *Engine) Cancel(ev *Event) {
	if ev != nil {
		ev.fn = nil
	}
}

// step fires the next event, reporting false when none remain.
func (e *Engine) step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Event)
		if ev.fn == nil {
			continue // canceled
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil
		e.executed++
		fn()
		return true
	}
	return false
}

// Run processes events until none remain and returns the final time.
func (e *Engine) Run() sim.Time {
	for e.step() {
	}
	return e.now
}

// RunUntil processes events with firing time <= t, then sets the clock to t.
func (e *Engine) RunUntil(t sim.Time) sim.Time {
	for len(e.events) > 0 {
		next := e.events[0]
		if next.fn == nil {
			heap.Pop(&e.events)
			continue
		}
		if next.at > t {
			break
		}
		e.step()
	}
	if t > e.now {
		e.now = t
	}
	return e.now
}
