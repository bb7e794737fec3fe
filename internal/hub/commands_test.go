package hub

import (
	"testing"
	"testing/quick"

	"repro/internal/fiber"
	"repro/internal/sim"
)

// Additional coverage for the full command set: flow control, lock
// variants, recovery commands, supervisor reconfiguration.

func TestReadySetClearGateTestOpen(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	b := attachCAB(eng, h, 1, "cabB")
	_ = b
	// Force output 1's ready bit clear, then a test-open (no retry) must
	// fail; set it and the test-open succeeds.
	eng.At(0, func() {
		a.send(
			a.cmd(OpReadyClear, 0, 1),
			a.cmd(OpTestOpenReply, 0, 1),
			a.cmd(OpReadySet, 0, 1),
			a.cmd(OpTestOpenReply, 0, 1),
		)
	})
	eng.Run()
	if len(a.replies) != 2 {
		t.Fatalf("replies = %d, want 2", len(a.replies))
	}
	if a.replies[0].ReplyOK {
		t.Fatal("test-open with cleared ready bit should fail")
	}
	if !a.replies[1].ReplyOK {
		t.Fatal("test-open with set ready bit should succeed")
	}
}

func TestMarkRepliesWhenDrained(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	b := attachCAB(eng, h, 1, "cabB")
	eng.At(0, func() {
		a.send(
			a.cmd(OpOpenRetry, 0, 1),
			packet(400),
			a.cmd(OpMark, 0, 9),
		)
	})
	eng.Run()
	if len(a.replies) != 1 || a.replies[0].ReplyVal != 9 {
		t.Fatalf("mark reply: %v", a.replies)
	}
	// The mark drains only after the packet was forwarded.
	if a.repTimes[0] < b.pktTimes[0] {
		t.Fatalf("mark replied at %v before packet forwarded at %v", a.repTimes[0], b.pktTimes[0])
	}
}

func TestFlushDiscardsQueuedItems(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	b := attachCAB(eng, h, 1, "cabB")
	c := attachCAB(eng, h, 2, "cabC")
	// c owns output 1; a's open-with-retry parks, the packet queues
	// behind it. The flush from a would be behind the parked open too —
	// so issue the flush from a different path: close c's conn so the
	// open is granted, but first verify the flush semantics directly:
	// send flush with items queued behind no connection.
	eng.At(0, func() { c.send(c.cmd(OpOpenRetry, 0, 1)) })
	eng.At(1000, func() {
		// No connection for a: the packet would be dropped with "no
		// connection" when processed; instead flush clears the queue.
		a.send(packet(100), packet(100), a.cmd(OpFlush, 0, 0))
	})
	eng.Run()
	if len(b.packets) != 0 {
		t.Fatal("flushed packets were forwarded")
	}
	if h.Port(0).Drops() < 2 {
		t.Fatalf("drops = %d, want >= 2 (flushed)", h.Port(0).Drops())
	}
}

func TestAbortTearsDownInputConnections(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	eng.At(0, func() {
		a.send(
			a.cmd(OpOpenRetry, 0, 1),
			a.cmd(OpOpenRetry, 0, 2),
			a.cmd(OpAbort, 0, 0),
			a.cmd(OpStatusConnCnt, 0, 0),
		)
	})
	eng.Run()
	if len(a.replies) != 1 || a.replies[0].ReplyVal != 0 {
		t.Fatalf("connections after abort: %v", a.replies)
	}
}

func TestCloseOutputForcesRecovery(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	b := attachCAB(eng, h, 1, "cabB")
	// a holds output 2; b force-closes it (recovery from a wedged CAB).
	eng.At(0, func() { a.send(a.cmd(OpOpenRetry, 0, 2)) })
	eng.At(5000, func() { b.send(b.cmd(OpCloseOutputReply, 0, 2)) })
	eng.Run()
	if len(b.replies) != 1 || !b.replies[0].ReplyOK {
		t.Fatalf("close-output reply: %v", b.replies)
	}
	if len(h.Connections()) != 0 {
		t.Fatalf("connection survived close-output: %v", h.Connections())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLockVariants(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	b := attachCAB(eng, h, 1, "cabB")
	eng.At(0, func() {
		a.send(
			a.cmd(OpLock, 0, 1),
			a.cmd(OpLock, 0, 2),
			a.cmd(OpLockCount, 0, 0),
		)
	})
	eng.At(5000, func() {
		b.send(
			b.cmd(OpLockHolder, 0, 1), // held by port 0
			b.cmd(OpLockHolder, 0, 3), // free
		)
	})
	eng.At(10_000, func() {
		a.send(a.cmd(OpUnlockAll, 0, 0))
	})
	eng.At(15_000, func() {
		b.send(b.cmd(OpLockCount, 0, 0))
	})
	eng.Run()
	if len(a.replies) != 3 {
		t.Fatalf("a replies = %d", len(a.replies))
	}
	if a.replies[2].ReplyVal != 2 {
		t.Fatalf("lock count = %d, want 2", a.replies[2].ReplyVal)
	}
	if len(b.replies) != 3 {
		t.Fatalf("b replies = %d", len(b.replies))
	}
	if !b.replies[0].ReplyOK || b.replies[0].ReplyVal != 0 {
		t.Fatalf("lock holder: ok=%v val=%d", b.replies[0].ReplyOK, b.replies[0].ReplyVal)
	}
	if b.replies[1].ReplyOK {
		t.Fatal("holder of free lock should report not held")
	}
	if b.replies[2].ReplyVal != 0 {
		t.Fatalf("lock count after unlock-all = %d", b.replies[2].ReplyVal)
	}
}

func TestLockRetryQueueFIFO(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 8, nil)
	holder := attachCAB(eng, h, 0, "holder")
	waiters := []*tcab{
		attachCAB(eng, h, 1, "w1"),
		attachCAB(eng, h, 2, "w2"),
		attachCAB(eng, h, 3, "w3"),
	}
	eng.At(0, func() { holder.send(holder.cmd(OpLock, 0, 7)) })
	for i, w := range waiters {
		w := w
		eng.At(sim.Time(1000*(i+1)), func() { w.send(w.cmd(OpLockRetry, 0, 7)) })
	}
	// Chain of unlocks: holder, then each waiter unlocks after being
	// granted.
	eng.At(100_000, func() { holder.send(holder.cmd(OpUnlock, 0, 7)) })
	eng.Go("unlock-chain", func(p *sim.Proc) {
		granted := 0
		for granted < 3 {
			p.Sleep(10_000)
			total := 0
			for _, w := range waiters {
				total += len(w.replies)
			}
			if total > granted {
				// Whoever was just granted releases after a while.
				idx := granted
				waiters[idx].send(waiters[idx].cmd(OpUnlock, 0, 7))
				granted++
			}
		}
	})
	eng.RunUntil(10 * sim.Millisecond)
	var times []sim.Time
	for _, w := range waiters {
		if len(w.replies) != 1 || !w.replies[0].ReplyOK {
			t.Fatalf("waiter replies: %d", len(w.replies))
		}
		times = append(times, w.repTimes[0])
	}
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Fatalf("lock grants out of FIFO order: %v", times)
	}
}

func TestSupervisorReconfiguration(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 3, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	eng.At(0, func() {
		a.send(
			a.cmd(OpIdent, 3, 0),
			a.cmd(SupSetHubID, 3, 9), // renumber the HUB
		)
	})
	eng.At(5000, func() {
		a.send(a.cmd(OpIdent, 9, 0)) // addressed with the NEW id
	})
	eng.Run()
	if len(a.replies) != 2 {
		t.Fatalf("replies = %d, want 2", len(a.replies))
	}
	if a.replies[0].ReplyVal != 3 || a.replies[1].ReplyVal != 9 {
		t.Fatalf("idents = %d, %d", a.replies[0].ReplyVal, a.replies[1].ReplyVal)
	}
}

func TestSupFreezeThaw(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	b := attachCAB(eng, h, 1, "cabB")
	// Freeze the controller; a's open-with-retry parks; thaw grants it.
	eng.At(0, func() { b.send(b.cmd(SupFreeze, 0, 0)) })
	eng.At(1000, func() { a.send(a.cmd(OpOpenRetryReply, 0, 2)) })
	eng.At(50_000, func() { b.send(b.cmd(SupThaw, 0, 0)) })
	eng.Run()
	if len(a.replies) != 1 || !a.replies[0].ReplyOK {
		t.Fatalf("open after thaw: %v", a.replies)
	}
	if a.repTimes[0] < 50_000 {
		t.Fatalf("open granted at %v while frozen", a.repTimes[0])
	}
}

func TestSupCountersAndTestPattern(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	b := attachCAB(eng, h, 1, "cabB")
	eng.At(0, func() {
		a.send(a.cmd(OpOpenRetry, 0, 1), packet(64), a.cmd(OpCloseAll, 0xFF, 0))
	})
	eng.At(100_000, func() {
		a.send(
			a.cmd(SupReadCounters, 0, 0),  // 1 packet forwarded so far
			a.cmd(SupTestPattern, 0, 1),   // emit a test packet out port 1
			a.cmd(SupClearCounters, 0, 0), // zero them
			a.cmd(SupReadCounters, 0, 0),
		)
	})
	eng.Run()
	if len(b.packets) != 2 { // the data packet + the test pattern
		t.Fatalf("cabB packets = %d, want 2", len(b.packets))
	}
	if len(a.replies) != 2 {
		t.Fatalf("replies = %d", len(a.replies))
	}
	if a.replies[0].ReplyVal == 0 {
		t.Fatal("counters empty before clear")
	}
	// The test pattern is emitted before the clear executes, so the final
	// count may be 0 or reflect only the pattern; it must be less than
	// the pre-clear value... both were forwarded before clear: expect 0.
	if a.replies[1].ReplyVal != 0 {
		t.Fatalf("counters after clear = %d", a.replies[1].ReplyVal)
	}
}

// TestSupResetPortClearsState: a port reset closes the port's connections
// and discards its queued packets, returning each one's credit upstream at
// the reset instant and counting it as a drop.
func TestSupResetPortClearsState(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	b := attachCAB(eng, h, 1, "cabB")
	var creditAt sim.Time
	h.Port(0).SetUpstreamReady(func() { a.readyUps++; creditAt = eng.Now() })
	eng.At(0, func() {
		a.send(a.cmd(OpOpenRetry, 0, 1))
		b.send(b.cmd(OpLock, 0, 3))
	})
	// a's input stalls behind a lock b holds; the packet queues behind it.
	eng.At(1000, func() { a.send(a.cmd(OpLockRetry, 0, 3), packet(16)) })
	const resetAt = 5000
	eng.At(resetAt, func() { b.send(b.cmd(SupResetPort, 0, 0)) }) // reset a's port
	eng.At(10_000, func() { b.send(b.cmd(OpStatusConnCnt, 0, 0)) })
	eng.Run()
	if n := len(b.replies); n != 2 || b.replies[n-1].ReplyVal != 0 {
		t.Fatalf("connections after port reset: %v", b.replies)
	}
	// The reset executes when its last command byte has arrived.
	executed := sim.Time(resetAt) + fiber.DefaultPropagation + fiber.CommandBytes*fiber.ByteTime
	if a.readyUps != 1 || creditAt != executed {
		t.Fatalf("reset returned %d credits to cabA, the last at %v; want 1 at %v", a.readyUps, creditAt, executed)
	}
	if q := h.Port(0); q.Drops() != 1 || q.QueueBytes() != 0 {
		t.Fatalf("reset port: %d drops, %d queued bytes; want 1 and 0", q.Drops(), q.QueueBytes())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownCommandRepliesError(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	eng.At(0, func() {
		a.send(a.cmd(Opcode(55), 0, 0)) // hole between user and supervisor ranges
	})
	eng.Run()
	if len(a.replies) != 1 || a.replies[0].ReplyOK || a.replies[0].ReplyVal != 0xFE {
		t.Fatalf("unknown command replies: %v", a.replies)
	}
}

func TestOpenInvalidPortFails(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	eng.At(0, func() { a.send(a.cmd(OpOpenReply, 0, 99)) })
	eng.Run()
	if len(a.replies) != 1 || a.replies[0].ReplyOK {
		t.Fatalf("open of invalid port: %v", a.replies)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: any interleaving of open/close/abort commands from random
// ports leaves the crossbar's status table consistent.
func TestCrossbarInvariantProperty(t *testing.T) {
	f := func(script []uint8) bool {
		eng := sim.NewEngine()
		h := New(eng, 0, 8, nil)
		cabs := make([]*tcab, 4)
		for i := range cabs {
			cabs[i] = attachCAB(eng, h, i, "cab")
		}
		for step, b := range script {
			if step > 120 {
				break
			}
			c := cabs[int(b)%4]
			out := byte(4 + int(b>>2)%4) // target the CAB-free ports
			var op Opcode
			switch (b >> 4) % 4 {
			case 0:
				op = OpOpen
			case 1:
				op = OpClose
			case 2:
				op = OpAbort
			case 3:
				op = OpCloseOutput
			}
			at := sim.Time(step * 700)
			eng.At(at, func() { c.send(c.cmd(op, 0, out)) })
		}
		eng.Run()
		return h.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
