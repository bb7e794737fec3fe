package hub

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestCongestionHighWaterEvent: a stalled input queue crossing the
// high-water mark notes exactly one FCongestion event; the mark re-arms
// only after the queue drains below half the threshold, so a sawtooth
// around the mark cannot spam the recorder.
func TestCongestionHighWaterEvent(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	fr := obs.NewFlightRecorder(eng, 64)
	h.Instrument(nil, fr)
	a := attachCAB(eng, h, 0, "cabA")
	b := attachCAB(eng, h, 1, "cabB")
	c := attachCAB(eng, h, 2, "cabC")

	congestions := func() int {
		n := 0
		for _, e := range fr.Events() {
			if e.Kind == obs.FCongestion {
				n++
			}
		}
		return n
	}

	// c owns output 1; a's open-with-retry parks, stalling input 0, and the
	// packets behind it pile up past the high-water mark. Times leave room
	// for fiber serialization (~10ns/byte).
	eng.At(0, func() { c.send(c.cmd(OpOpenRetry, 0, 1)) })
	eng.At(10*sim.Microsecond, func() {
		a.send(a.cmd(OpOpenRetry, 0, 1))
		a.send(packet(400), packet(400))
	})
	eng.At(80*sim.Microsecond, func() {
		if congestions() != 1 {
			t.Fatalf("after crossing high water: %d FCongestion events, want 1", congestions())
		}
		if !h.Port(0).Congested() {
			t.Fatal("port should report congested")
		}
		if h.Port(0).PeakQueueBytes() < CongestionHighWater {
			t.Fatalf("peak %d below high water %d", h.Port(0).PeakQueueBytes(), CongestionHighWater)
		}
		// More arrivals while already congested must not re-note.
		a.send(packet(100))
	})
	eng.At(150*sim.Microsecond, func() {
		if congestions() != 1 {
			t.Fatalf("arrival while congested re-noted: %d events", congestions())
		}
		// Release the output: a's parked open is granted and the queue
		// drains to cabB, dropping below half the mark to re-arm.
		c.send(c.cmd(OpCloseAll, 0xFF, 0))
	})
	eng.At(500*sim.Microsecond, func() {
		if h.Port(0).Congested() {
			t.Fatalf("drained port still congested (queue %d bytes)", h.Port(0).QueueBytes())
		}
		// A second buildup after re-arming notes a second event.
		a.send(a.cmd(OpCloseAll, 0xFF, 0))
		c.send(c.cmd(OpOpenRetry, 0, 1))
	})
	eng.At(520*sim.Microsecond, func() {
		a.send(a.cmd(OpOpenRetry, 0, 1))
		a.send(packet(400), packet(400))
	})
	eng.Run()

	if got := congestions(); got != 2 {
		t.Fatalf("FCongestion events = %d, want 2 (one per buildup)", got)
	}
	ev := fr.Events()
	var first *obs.Event
	for i := range ev {
		if ev[i].Kind == obs.FCongestion {
			first = &ev[i]
			break
		}
	}
	if first.Where != h.Port(0).EndpointName() {
		t.Fatalf("event port = %q, want %q", first.Where, h.Port(0).EndpointName())
	}
	if first.B < CongestionHighWater {
		t.Fatalf("event queue bytes = %d, below high water", first.B)
	}
	_ = b
}
