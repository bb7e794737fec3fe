package trace_test

import (
	"strings"
	"testing"

	"repro/internal/hub"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The HUBs' event log is their instrumentation board: an
// obs.FlightRecorder whose events hub.WriteLog renders. These tests pin
// what the event log promises to nectar-trace and to the run's telemetry
// (trace.dropped): per-kind counts stay exact whatever the limit, the log
// keeps the last events and says how many it no longer holds, and a
// board left off is inert.

// pair packs an input and an output port as the board's connection
// events carry them.
func pair(in, out int) int64 { return int64(in)<<16 | int64(out) }

func TestRecorder(t *testing.T) {
	e := sim.NewEngine()
	r := obs.NewFlightRecorder(e, 2)
	e.At(10, func() { r.Note(obs.FConnOpen, "hub0.p1", pair(1, 2), 10) })
	e.At(20, func() { r.Note(obs.FConnClose, "hub0.p1", pair(1, 2), 0) })
	e.At(30, func() { r.Note(obs.FConnOpen, "hub0.p2", pair(2, 3), 30) })
	e.Run()
	if r.Count(obs.FConnOpen) != 2 {
		t.Fatalf("Count(open) = %d", r.Count(obs.FConnOpen))
	}
	evs := r.Events()
	if len(evs) != 2 { // limited to 2 retained
		t.Fatalf("retained %d events", len(evs))
	}
	if evs[0].At != 20 || evs[1].At != 30 {
		t.Fatalf("retained events at %v and %v, want the last two (20ns, 30ns)", evs[0].At, evs[1].At)
	}
	var b strings.Builder
	hub.WriteLog(&b, r)
	if !strings.Contains(b.String(), "conn-open") || !strings.Contains(b.String(), "p2->p3") {
		t.Fatalf("log:\n%s", b.String())
	}
}

func TestRecorderDroppedAndDumpSuffix(t *testing.T) {
	e := sim.NewEngine()
	r := obs.NewFlightRecorder(e, 2)
	for i := 0; i < 5; i++ {
		e.At(sim.Time(10*(i+1)), func() { r.Note(obs.FCommand, "hub0", int64(i), 0) })
	}
	e.Run()
	if r.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", r.Dropped())
	}
	if r.Count(obs.FCommand) != 5 {
		t.Fatalf("counters must stay exact: Count = %d", r.Count(obs.FCommand))
	}
	var b strings.Builder
	hub.WriteLog(&b, r)
	if !strings.Contains(b.String(), "3 more events not retained (limit 2)") {
		t.Fatalf("log missing dropped-events suffix:\n%s", b.String())
	}

	// No drops -> no suffix.
	r2 := obs.NewFlightRecorder(e, 10)
	r2.Note(obs.FCommand, "hub0", 0, 0)
	b.Reset()
	if hub.WriteLog(&b, r2); strings.Contains(b.String(), "not retained") {
		t.Fatalf("log should omit the suffix when nothing was dropped:\n%s", b.String())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *obs.FlightRecorder
	r.Note(obs.FCommand, "x", 0, 0)
	var b strings.Builder
	hub.WriteLog(&b, r)
	if r.Count(obs.FCommand) != 0 || r.Dropped() != 0 || r.Events() != nil || b.Len() != 0 {
		t.Fatal("nil board should be inert")
	}
}
