package obs

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkFlightNoteDisabled is the acceptance guard for the disabled
// state: a nil recorder's Note must cost nothing — no allocations, a
// couple of instructions.
func BenchmarkFlightNoteDisabled(b *testing.B) {
	var f *FlightRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Note(FSend, "dl", int64(i), 128)
	}
}

// BenchmarkFlightNoteEnabled guards the enabled state: recording into the
// preallocated ring must also be zero-alloc, so an armed recorder never
// touches the allocator mid-run.
func BenchmarkFlightNoteEnabled(b *testing.B) {
	eng := sim.NewEngine()
	f := NewFlightRecorder(eng, DefaultFlightEvents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Note(FSend, "dl", int64(i), 128)
	}
}

// samplerFixture is a started sampler polling a realistic source count (a
// 4-CAB single-hub system registers ~20) every period.
func samplerFixture(period sim.Time) (*sim.Engine, *Sampler) {
	eng := sim.NewEngine()
	s := NewSampler(eng, period, 1024)
	var v int64
	for i := 0; i < 20; i++ {
		s.Register("src", func() int64 { v++; return v })
	}
	s.Start()
	return eng, s
}

// BenchmarkSamplerTick measures one sampling tick as the engine runs it:
// the event, the reads, and the re-arm.
func BenchmarkSamplerTick(b *testing.B) {
	eng, _ := samplerFixture(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(eng.Now() + 1)
	}
}

// TestSamplerTickZeroAlloc: an armed sampler ticks every 20us of simulated
// time for the whole run, so a tick, re-arm included, must not touch the
// allocator.
func TestSamplerTickZeroAlloc(t *testing.T) {
	const period = 20 * sim.Microsecond
	eng, s := samplerFixture(period)
	eng.RunUntil(eng.Now() + period) // the first tick warms the event pool
	allocs := testing.AllocsPerRun(1000, func() {
		eng.RunUntil(eng.Now() + period)
	})
	if allocs != 0 {
		t.Fatalf("a sampler tick allocates %.2f/op, want 0", allocs)
	}
	if got := s.Ticks(); got != 1002 {
		t.Fatalf("%d ticks ran, want 1002", got)
	}
}

func TestFlightNoteZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFlightRecorder(eng, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		f.Note(FDrop, "hub0", 3, 64)
	})
	if allocs != 0 {
		t.Fatalf("enabled Note allocates %.1f/op, want 0", allocs)
	}
	var nilf *FlightRecorder
	allocs = testing.AllocsPerRun(1000, func() {
		nilf.Note(FDrop, "hub0", 3, 64)
	})
	if allocs != 0 {
		t.Fatalf("disabled Note allocates %.1f/op, want 0", allocs)
	}
}
