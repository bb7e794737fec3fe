package transport

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// ovl builds overload state as transport.New does without heartbeats.
func ovl() *overload { return newOverload(0) }

// item builds a queue entry whose dst doubles as a marker for the test.
func item(marker, size int) ovItem {
	return ovItem{dst: marker, wire: make([]byte, size)}
}

func TestWDRRDequeuePrecedence(t *testing.T) {
	o := ovl()
	// Enqueued lowest-priority-first; dequeue must come back highest-first.
	o.enqueue(item(2, 100), ClassBulk)
	o.enqueue(item(0, 100), ClassNormal)
	o.enqueue(item(1, 100), ClassCritical)
	want := []int{1, 0, 2} // critical, normal, bulk
	for i, w := range want {
		it, ok := o.dequeue()
		if !ok || it.dst != w {
			t.Fatalf("dequeue %d = (%d, %v), want marker %d", i, it.dst, ok, w)
		}
	}
	if _, ok := o.dequeue(); ok {
		t.Fatal("dequeue on empty queue returned an item")
	}
	if o.queued != 0 {
		t.Fatalf("queued = %d after drain", o.queued)
	}
}

func TestWDRRWeightsNormalOverBulk(t *testing.T) {
	o := ovl()
	// Equal-size packets; default quanta are 2048 normal / 1024 bulk, so
	// with 1024-byte packets each round serves 2 normal then 1 bulk.
	for i := 0; i < 6; i++ {
		o.enqueue(item(0, 1024), ClassNormal)
		o.enqueue(item(2, 1024), ClassBulk)
	}
	var order []int
	for {
		it, ok := o.dequeue()
		if !ok {
			break
		}
		order = append(order, it.dst)
	}
	want := []int{0, 0, 2, 0, 0, 2, 0, 0, 2, 2, 2, 2}
	if len(order) != len(want) {
		t.Fatalf("dequeued %d items, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("WDRR order %v, want %v (2:1 normal:bulk per round)", order, want)
		}
	}
}

func TestWDRRBulkNotStarved(t *testing.T) {
	o := ovl()
	// A continuous critical backlog must not starve a waiting bulk packet:
	// every backlogged class earns its quantum each round.
	for i := 0; i < 8; i++ {
		o.enqueue(item(1, 4096), ClassCritical)
	}
	o.enqueue(item(2, 1024), ClassBulk)
	for i := 0; i < 4; i++ {
		it, ok := o.dequeue()
		if !ok {
			t.Fatalf("queue dry after %d dequeues", i)
		}
		if it.dst == 2 {
			return // bulk got through
		}
	}
	t.Fatal("bulk packet starved behind critical backlog")
}

func TestSojournControllerEngageAndRecover(t *testing.T) {
	o := ovl() // target 100us, window 500us

	// Below target: nothing happens.
	o.observeSojourn(sim.Millisecond, 50*sim.Microsecond)
	if o.shedLevel != 0 {
		t.Fatalf("shedLevel = %d below target", o.shedLevel)
	}

	// Above target but not yet for a full window: still nothing.
	o.observeSojourn(sim.Millisecond, 200*sim.Microsecond)
	o.observeSojourn(sim.Millisecond+400*sim.Microsecond, 200*sim.Microsecond)
	if o.shedLevel != 0 {
		t.Fatalf("shedLevel = %d before a full window above target", o.shedLevel)
	}

	// A full window above target: shed bulk.
	o.observeSojourn(sim.Millisecond+600*sim.Microsecond, 150*sim.Microsecond)
	if o.shedLevel != 1 {
		t.Fatalf("shedLevel = %d, want 1 (bulk) after window above target", o.shedLevel)
	}
	if !o.shedByLevel(ClassBulk) || o.shedByLevel(ClassNormal) || o.shedByLevel(ClassCritical) {
		t.Fatal("level 1 must shed bulk only")
	}

	// Sojourns past twice the target escalate to shedding normal.
	o.observeSojourn(sim.Millisecond+700*sim.Microsecond, 300*sim.Microsecond)
	if o.shedLevel != 2 {
		t.Fatalf("shedLevel = %d, want 2 after sojourn > 2x target", o.shedLevel)
	}
	if !o.shedByLevel(ClassNormal) || o.shedByLevel(ClassCritical) {
		t.Fatal("level 2 must shed bulk+normal, never critical")
	}

	// One quick packet through: the controller disengages completely.
	o.observeSojourn(2*sim.Millisecond, 10*sim.Microsecond)
	if o.shedLevel != 0 || o.above != 0 {
		t.Fatalf("controller did not recover: level=%d above=%v", o.shedLevel, o.above)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	tp := &Transport{ovl: ovl()}
	o := tp.ovl
	peer := 5

	// One reject short of the threshold: still closed.
	for i := 0; i < breakerTrip-1; i++ {
		tp.noteFastReject(peer, 0)
	}
	if b := o.brk[peer]; b.open || b.consec != breakerTrip-1 {
		t.Fatalf("breaker after %d rejects: open=%v consec=%d", breakerTrip-1, b.open, b.consec)
	}

	// The threshold reject trips it open with a jittered cooldown.
	tp.noteFastReject(peer, 10*sim.Millisecond)
	b := o.brk[peer]
	if !b.open || o.breakerTrips != 1 || o.breakerOpen != 1 {
		t.Fatalf("breaker did not trip: open=%v trips=%d gauge=%d", b.open, o.breakerTrips, o.breakerOpen)
	}
	if b.reopenAt <= 10*sim.Millisecond {
		t.Fatalf("reopenAt %v not in the future", b.reopenAt)
	}
	firstReopen := b.reopenAt

	// A failed half-open probe re-arms a longer cooldown (trips grow it).
	b.probing = true
	tp.noteFastReject(peer, firstReopen)
	if b.probing || b.trips != 2 {
		t.Fatalf("failed probe: probing=%v trips=%d", b.probing, b.trips)
	}
	if b.reopenAt <= firstReopen {
		t.Fatalf("failed probe did not push reopenAt forward: %v <= %v", b.reopenAt, firstReopen)
	}

	// Success closes the breaker and resets the streak; the open gauge
	// returns to zero. A success on a closed breaker is a no-op.
	tp.noteSuccess(peer)
	if b.open || b.consec != 0 || o.breakerOpen != 0 {
		t.Fatalf("breaker did not close: open=%v consec=%d gauge=%d", b.open, b.consec, o.breakerOpen)
	}
	tp.noteSuccess(peer)
	tp.noteSuccess(99) // unknown peer: no state, no panic
	if o.breakerOpen != 0 {
		t.Fatalf("gauge drifted to %d", o.breakerOpen)
	}
}

func TestBreakerSuccessBetweenRejectsResetsStreak(t *testing.T) {
	tp := &Transport{ovl: ovl()}
	for i := 0; i < breakerTrip-1; i++ {
		tp.noteFastReject(1, 0)
	}
	tp.noteSuccess(1)
	for i := 0; i < breakerTrip-1; i++ {
		tp.noteFastReject(1, 0)
	}
	if b := tp.ovl.brk[1]; b.open {
		t.Fatal("non-consecutive rejects tripped the breaker")
	}
}

// TestAdmitDisabledZeroAlloc pins the acceptance criterion: with the
// subsystem disabled the admission fast path is a nil-compare — zero
// allocations per operation.
func TestAdmitDisabledZeroAlloc(t *testing.T) {
	tp := &Transport{}
	opts := SendOpts{Class: ClassBulk, Deadline: sim.Second}
	if n := testing.AllocsPerRun(1000, func() {
		if err := tp.admit(1, opts); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("disabled admit allocates %v per op, want 0", n)
	}
}

func BenchmarkAdmitDisabled(b *testing.B) {
	tp := &Transport{}
	opts := SendOpts{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tp.admit(1, opts)
	}
}

func TestMaxSegBudgetsDeadlineExtension(t *testing.T) {
	if maxSeg(0) != MaxData {
		t.Fatalf("maxSeg(0) = %d, want MaxData %d", maxSeg(0), MaxData)
	}
	if maxSeg(sim.Millisecond) != MaxData-DeadlineExtSize {
		t.Fatalf("maxSeg(deadline) = %d, want %d", maxSeg(sim.Millisecond), MaxData-DeadlineExtSize)
	}
}

func TestOverloadAccessorsNilSafe(t *testing.T) {
	tp := &Transport{}
	sent, recv := tp.OverloadRejects()
	if tp.OverloadSheds() != 0 || tp.OverloadShedsClass(ClassBulk) != 0 ||
		tp.OverloadExpired() != 0 || tp.OverloadBreakerOpen() != 0 ||
		tp.OverloadBreakerTrips() != 0 || tp.OverloadQueued() != 0 ||
		sent != 0 || recv != 0 {
		t.Fatal("disabled transport leaked overload state")
	}
	armed := &Transport{ovl: ovl()}
	if armed.OverloadShedsClass(NumClasses) != 0 {
		t.Fatal("out-of-range class not guarded")
	}
}

func TestOverloadErrorStrings(t *testing.T) {
	e := &ErrOverload{Peer: 3, Class: ClassBulk, Reason: "send-queue sojourn"}
	if !strings.Contains(e.Error(), "bulk") || !strings.Contains(e.Error(), "send-queue sojourn") {
		t.Fatalf("ErrOverload text %q", e.Error())
	}
	d := &ErrDeadlineExpired{Deadline: 100, Now: 200}
	if !strings.Contains(d.Error(), "expired") {
		t.Fatalf("ErrDeadlineExpired text %q", d.Error())
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassNormal: "normal", ClassCritical: "critical", ClassBulk: "bulk", Class(9): "class(9)",
	} {
		if c.String() != want {
			t.Fatalf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}
