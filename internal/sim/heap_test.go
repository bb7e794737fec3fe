package sim

import (
	"math/rand"
	"testing"
)

// The engine recycles event slots through a free list; these tests pin the
// safety contract of the Event handle across that reuse.

func TestStaleHandleCancelIsSafe(t *testing.T) {
	e := NewEngine()
	fired1 := false
	ev1 := e.At(10, func() { fired1 = true })
	e.Run()
	if !fired1 {
		t.Fatal("first event did not fire")
	}
	if !ev1.Canceled() {
		t.Fatal("fired event's handle should report Canceled")
	}

	// The slot behind ev1 is now on the free list; schedule enough events
	// to guarantee it is reused, then cancel through the stale handle.
	fired2 := 0
	for i := 0; i < 4*slotChunk; i++ {
		e.At(20, func() { fired2++ })
	}
	e.Cancel(ev1) // must NOT cancel whatever reused ev1's slot
	e.Run()
	if fired2 != 4*slotChunk {
		t.Fatalf("stale-handle Cancel killed a live event: fired %d of %d", fired2, 4*slotChunk)
	}
}

func TestZeroEventHandle(t *testing.T) {
	e := NewEngine()
	var ev Event
	if !ev.Canceled() {
		t.Fatal("zero Event should report Canceled")
	}
	e.Cancel(ev) // no-op, must not panic
}

func TestSlotReuseZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	// Warm the free list past the chunk boundary.
	for i := 0; i < 2*slotChunk; i++ {
		e.After(1, func() {})
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.After(1, func() {})
		e.RunUntil(e.Now() + 1)
	})
	if avg > 0.1 {
		t.Fatalf("steady-state schedule+fire allocates %.2f/event, want ~0", avg)
	}
}

// checkHeap asserts that the heap holds exactly the pending events and that
// every slot's recorded index is its position in the heap.
func checkHeap(t *testing.T, e *Engine, when string) {
	t.Helper()
	if len(e.events) != e.Pending() {
		t.Fatalf("%s: heap holds %d slots, Pending = %d", when, len(e.events), e.Pending())
	}
	for i, s := range e.events {
		if s.idx != i {
			t.Fatalf("%s: slot at heap index %d records index %d", when, i, s.idx)
		}
		if s.fn == nil {
			t.Fatalf("%s: heap index %d holds a canceled slot", when, i)
		}
	}
}

func TestCancelAccounting(t *testing.T) {
	e := NewEngine()
	const n = 1000
	handles := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		// Scrambled times, so a removal's hole can need a sift up as well
		// as down.
		handles = append(handles, e.At(Time(1+i*7919%n), func() {}))
	}
	checkHeap(t, e, "after scheduling")
	// Cancel a big majority; the heap must shrink with every cancel and the
	// survivors must still fire in order.
	canceled := 0
	for i, ev := range handles {
		if i%5 != 0 {
			e.Cancel(ev)
			canceled++
			checkHeap(t, e, "after cancel")
		}
	}
	e.Cancel(handles[1]) // double cancel
	checkHeap(t, e, "after double cancel")
	top := e.events[0] // cancel the heap's top
	e.Cancel(Event{s: top, seq: top.seq})
	canceled++
	checkHeap(t, e, "after canceling the top")
	if got, want := e.Pending(), n-canceled; got != want {
		t.Fatalf("Pending after cancels = %d, want %d", got, want)
	}
	before := e.Executed()
	last := Time(0)
	for e.step() {
		if e.Now() < last {
			t.Fatalf("event at %v fired after one at %v", e.Now(), last)
		}
		last = e.Now()
		checkHeap(t, e, "after firing")
	}
	if fired := e.Executed() - before; fired != uint64(n-canceled) {
		t.Fatalf("fired %d events, want %d", fired, n-canceled)
	}
}

func TestCancelPendingTwice(t *testing.T) {
	e := NewEngine()
	ev := e.At(5, func() { t.Error("canceled event fired") })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel must not remove anything else
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	e.At(7, func() {})
	e.Run()
	if e.Executed() != 1 {
		t.Fatalf("Executed = %d, want 1", e.Executed())
	}
}

func TestHeapRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(50)) // heavy ties to exercise FIFO break
			i := i
			e.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		e.Run()
		if len(fired) != n {
			t.Fatalf("trial %d: fired %d of %d", trial, len(fired), n)
		}
		for i := 1; i < n; i++ {
			a, b := fired[i-1], fired[i]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				t.Fatalf("trial %d: out of order at %d: %v before %v", trial, i, a, b)
			}
		}
	}
}

// Nested scheduling from within callbacks must preserve (time, seq) order
// through pool reuse.
func TestHeapNestedScheduling(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() {
		got = append(got, 1)
		e.At(10, func() { got = append(got, 3) }) // same time, later seq
		e.After(5, func() { got = append(got, 4) })
	})
	e.At(10, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
