package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The engine recycles event slots through a free list; these tests pin the
// safety contract of the Event handle across that reuse, and the radix
// queue's bookkeeping.

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

// checkQueue asserts the radix queue's invariants: every pending slot sits
// in the bucket of its time at the position it records, bucket 0 is in seq
// order with a pending slot at its head, mask names exactly the non-empty
// buckets, Pending counts the pending slots, and the minimum never passes
// the clock.
func checkQueue(t *testing.T, e *Engine, when string) {
	t.Helper()
	if e.last > e.now {
		t.Fatalf("%s: last minimum %v is past the clock %v", when, e.last, e.now)
	}
	live := 0
	for b, bk := range e.buckets {
		if got, want := e.mask&(1<<b) != 0, len(bk) > 0; got != want {
			t.Fatalf("%s: mask bit %d is %v, bucket holds %d entries", when, b, got, len(bk))
		}
		from := 0
		if b == 0 {
			from = e.head
			if len(bk) == 0 && e.head != 0 || len(bk) > 0 && (e.head >= len(bk) || bk[e.head] == nil) {
				t.Fatalf("%s: bucket 0 has %d entries and head %d, which is not a pending slot", when, len(bk), e.head)
			}
		}
		var seq uint64
		for i, s := range bk[from:] {
			i += from
			if s == nil {
				if b != 0 {
					t.Fatalf("%s: bucket %d index %d is empty", when, b, i)
				}
				continue
			}
			live++
			if s.fn == nil {
				t.Fatalf("%s: bucket %d index %d holds a spent slot", when, b, i)
			}
			if int(s.bucket) != b || int(s.idx) != i {
				t.Fatalf("%s: slot at bucket %d index %d records bucket %d index %d", when, b, i, s.bucket, s.idx)
			}
			if got := bits.Len64(uint64(s.at ^ e.last)); got != b {
				t.Fatalf("%s: slot due at %v sits in bucket %d, belongs in %d (last %v)", when, s.at, b, got, e.last)
			}
			if b == 0 {
				if s.seq <= seq {
					t.Fatalf("%s: bucket 0 index %d has seq %d after %d", when, i, s.seq, seq)
				}
				seq = s.seq
			}
		}
	}
	if live != e.Pending() {
		t.Fatalf("%s: queue holds %d pending slots, Pending = %d", when, live, e.Pending())
	}
}

func TestCancelAccounting(t *testing.T) {
	e := NewEngine()
	const n, far = 1000, 64
	type rec struct {
		at  Time
		seq int
	}
	var fired []rec
	handles := make([]Event, 0, n+far)
	for i := 0; i < n+far; i++ {
		// Scrambled times, eight events to each, then a run of far
		// timers that all share one high bucket.
		at := Time(1 + i*7919%n/8)
		if i >= n {
			at = 1<<40 + Time(i)
		}
		handles = append(handles, e.At(at, func() { fired = append(fired, rec{at, i}) }))
	}
	checkQueue(t, e, "after scheduling")
	canceled := 0
	cancel := func(ev Event, when string) {
		t.Helper()
		e.Cancel(ev)
		canceled++
		checkQueue(t, e, when)
	}
	// Fire the first event, so the other seven due at time 1 fill bucket 0.
	if !e.step(math.MaxInt64) {
		t.Fatal("nothing fired")
	}
	if got := len(e.buckets[0]) - e.head; got != 7 {
		t.Fatalf("bucket 0 holds %d entries past its head, want 7", got)
	}
	b0 := e.buckets[0]
	mid := b0[e.head+3]
	cancel(Event{s: mid, seq: mid.seq}, "after canceling the middle of bucket 0")
	head := b0[e.head]
	cancel(Event{s: head, seq: head.seq}, "after canceling the head of bucket 0")
	high := e.buckets[41]
	if len(high) != far {
		t.Fatalf("bucket 41 holds %d far timers, want %d", len(high), far)
	}
	hs := high[far/3]
	cancel(Event{s: hs, seq: hs.seq}, "after canceling from a high bucket")
	// Cancel a big majority; every cancel takes its slot out at once.
	for i, ev := range handles {
		if i%5 != 0 && !ev.Canceled() {
			cancel(ev, "after cancel")
		}
	}
	e.Cancel(handles[1]) // double cancel
	checkQueue(t, e, "after double cancel")
	if got, want := e.Pending(), n+far-1-canceled; got != want {
		t.Fatalf("Pending after cancels = %d, want %d", got, want)
	}
	before := e.Executed()
	for e.step(math.MaxInt64) {
		checkQueue(t, e, "after firing")
	}
	if got, want := e.Executed()-before, uint64(n+far-1-canceled); got != want {
		t.Fatalf("fired %d events, want %d", got, want)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || b.at == a.at && b.seq < a.seq {
			t.Fatalf("out of order at %d: %v before %v", i, a, b)
		}
	}
	// A lone event, in a high bucket and then at the current instant.
	for _, d := range []Time{5, 0} {
		ev := e.After(d, func() { t.Error("canceled event fired") })
		checkQueue(t, e, "after scheduling a lone event")
		e.Cancel(ev)
		checkQueue(t, e, "after canceling a lone event")
		if e.Pending() != 0 || e.mask != 0 {
			t.Fatalf("after canceling a lone event: Pending %d, mask %#x", e.Pending(), e.mask)
		}
	}
	e.Run()
}

// A chain of events at one instant must not grow bucket 0: it is emptied
// each time its last pending entry fires, so the chain's storage is reused.
func TestSameInstantChainAllocatesNothing(t *testing.T) {
	e := NewEngine()
	left, most := 0, 0
	var hop func()
	hop = func() {
		if left--; left > 0 {
			e.After(0, hop)
		}
		most = max(most, e.Pending())
	}
	chain := func() {
		left = 100000
		e.After(0, hop)
		e.Run()
	}
	chain()
	if avg := testing.AllocsPerRun(5, chain); avg > 0.5 {
		t.Fatalf("a chain of 100000 events at one instant allocates %.1f objects", avg)
	}
	if most > 2 {
		t.Fatalf("Pending reached %d during the chain, want at most 2", most)
	}
	if c := cap(e.buckets[0]); c > 8 {
		t.Fatalf("bucket 0 grew to capacity %d during the chain", c)
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
