package obs

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestFlightRecorderRing(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFlightRecorder(eng, 4)
	for i := 0; i < 7; i++ {
		f.Note(FSend, "dl", int64(i), 100)
	}
	if f.Total() != 7 {
		t.Fatalf("Total = %d, want 7", f.Total())
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest-first: sequence numbers 4..7, A payloads 3..6.
	for i, ev := range evs {
		if ev.Seq != uint64(4+i) || ev.A != int64(3+i) {
			t.Fatalf("event %d = %+v, want seq %d a %d", i, ev, 4+i, 3+i)
		}
	}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFlightRecorder(eng, 8)
	f.Note(FDrop, "hub0", 2, 64)
	f.Note(FLinkDown, "net", 0, 1)
	evs := f.Events()
	if len(evs) != 2 || evs[0].Kind != FDrop || evs[1].Kind != FLinkDown {
		t.Fatalf("events = %+v", evs)
	}
}

// FuzzFlightRecorder feeds a sequence of notes to a ring of capacity 1-8
// (the first byte) and compares it with a slice of every note: the ring
// holds the last min(n, cap) notes oldest first with their sequence
// numbers, and Total, Dropped and every per-kind Count are exact.
func FuzzFlightRecorder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 2, 3})
	f.Add([]byte{1, 5, 5, 6, 5, 7, 0, 255})
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		eng := sim.NewEngine()
		fr := NewFlightRecorder(eng, int(data[0])%8+1)
		var all []Event
		var counts [kindCount]uint64
		for i, b := range data[1:] {
			ev := Event{Kind: Kind(b) % kindCount, Seq: uint64(i + 1), A: int64(i), B: -int64(b), Where: "w"}
			fr.Note(ev.Kind, ev.Where, ev.A, ev.B)
			all = append(all, ev)
			counts[ev.Kind]++
		}
		want := all[len(all)-min(len(all), fr.Cap()):]
		got := fr.Events()
		if len(got) != len(want) {
			t.Fatalf("cap %d, %d notes: %d events, want %d", fr.Cap(), len(all), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		if fr.Total() != uint64(len(all)) || fr.Dropped() != uint64(len(all)-len(want)) {
			t.Fatalf("Total %d Dropped %d, want %d and %d", fr.Total(), fr.Dropped(), len(all), len(all)-len(want))
		}
		for k := range Kind(kindCount) {
			if fr.Count(k) != counts[k] {
				t.Fatalf("Count(%v) = %d, want %d", k, fr.Count(k), counts[k])
			}
		}
	})
}

func TestPostMortemContents(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFlightRecorder(eng, 0)
	if f.Cap() != DefaultFlightEvents {
		t.Fatalf("default cap = %d", f.Cap())
	}
	eng.At(10, func() { f.Note(FLinkDown, "net", 0, 1) })
	eng.At(20, func() { f.Note(FRTOExpiry, "cab1.tp", 2, 3) })
	eng.At(30, func() { f.Note(FLinkUp, "net", 0, 1) })
	eng.Run()
	pm := f.PostMortem()
	for _, want := range []string{
		"3 events recorded",
		"link-state timeline (2 transitions):",
		"link 0->1 DOWN",
		"link 0->1 UP",
		"rto-expiry",
		"last 3 events (oldest first):",
	} {
		if !strings.Contains(pm, want) {
			t.Fatalf("post-mortem missing %q:\n%s", want, pm)
		}
	}
}

func TestPostMortemTalliesOverloadKinds(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFlightRecorder(eng, 16)
	f.Note(FShed, "cab0.tp", 1, 2)
	f.Note(FShed, "cab0.tp", 1, 2)
	f.Note(FDeadlineExpired, "cab0.tp", 1, 0)
	f.Note(FBreakerTrip, "cab0.tp", 1, 1)
	f.Note(FBreakerClose, "cab0.tp", 1, 0)
	c := f.retained()
	if c[FShed] != 2 || c[FDeadlineExpired] != 1 || c[FBreakerTrip] != 1 || c[FBreakerClose] != 1 {
		t.Fatalf("tally = shed %d expired %d trip %d close %d", c[FShed], c[FDeadlineExpired], c[FBreakerTrip], c[FBreakerClose])
	}
	pm := f.PostMortem()
	for _, want := range []string{"shed", "deadline-expired", "breaker-trip", "breaker-close"} {
		if !strings.Contains(pm, want) {
			t.Fatalf("post-mortem missing %q:\n%s", want, pm)
		}
	}
	for _, k := range []Kind{FShed, FDeadlineExpired, FBreakerTrip, FBreakerClose} {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestNilFlightRecorderSafe(t *testing.T) {
	var f *FlightRecorder
	f.Note(FSend, "dl", 1, 2)
	if f.Total() != 0 || f.Cap() != 0 || f.Events() != nil || f.Count(FSend) != 0 || f.Dropped() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if pm := f.PostMortem(); !strings.Contains(pm, "not armed") {
		t.Fatalf("nil PostMortem = %q", pm)
	}
}

func TestWatchdogDetectsStallOnce(t *testing.T) {
	eng := sim.NewEngine()
	var progress, inflight int64
	var stallAt []sim.Time
	w := NewWatchdog(eng, 10, func() int64 { return progress },
		func() int64 { return inflight }, func(at sim.Time) { stallAt = append(stallAt, at) })
	w.Start()
	inflight = 1
	// Progress moves until t=25, then stalls with work in flight.
	eng.At(5, func() { progress = 1 })
	eng.At(15, func() { progress = 2 })
	eng.At(25, func() { progress = 3 })
	eng.RunUntil(100)
	w.Stop()
	if len(stallAt) != 1 {
		t.Fatalf("stall fired %d times at %v, want once", len(stallAt), stallAt)
	}
	// progress=3 first seen at the t=30 check; unchanged by t=40 → fire.
	if stallAt[0] != 40 {
		t.Fatalf("stall at %v, want 40", stallAt[0])
	}
	if w.Stalls() != 1 {
		t.Fatalf("Stalls = %d", w.Stalls())
	}
	if eng.Pending() != 0 {
		t.Fatalf("stopped watchdog left %d pending events", eng.Pending())
	}
}

func TestWatchdogRearmsAfterProgress(t *testing.T) {
	eng := sim.NewEngine()
	var progress, inflight int64 = 0, 1
	fired := 0
	w := NewWatchdog(eng, 10, func() int64 { return progress },
		func() int64 { return inflight }, func(sim.Time) { fired++ })
	w.Start()
	// Stall, resume, stall again → two distinct detections.
	eng.At(45, func() { progress = 1 })
	eng.RunUntil(120)
	w.Stop()
	if fired != 2 {
		t.Fatalf("fired %d times, want 2 (one per distinct stall)", fired)
	}
}

func TestWatchdogIdleIsNotAStall(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWatchdog(eng, 10, func() int64 { return 0 },
		func() int64 { return 0 }, func(sim.Time) { t.Fatal("stall fired while idle") })
	w.Start()
	eng.RunUntil(200)
	w.Stop()
}

func TestNilWatchdogSafe(t *testing.T) {
	var w *Watchdog
	w.Start()
	w.Stop()
	if w.Stalls() != 0 {
		t.Fatal("nil watchdog leaked state")
	}
}
