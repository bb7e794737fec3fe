package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSeriesDownsampling(t *testing.T) {
	s := newSeries("q", 8)
	for i := 0; i < 64; i++ {
		s.add(sim.Time(i)*10, int64(i))
	}
	if s.stride <= 1 {
		t.Fatalf("expected stride growth after overflow, got %d", s.stride)
	}
	pts := s.pts
	if len(pts) > 8 {
		t.Fatalf("series exceeded capacity: %d points", len(pts))
	}
	// Points stay in time order and first point is the first sample.
	for i := 1; i < len(pts); i++ {
		if pts[i].At <= pts[i-1].At {
			t.Fatalf("points out of order at %d: %v", i, pts)
		}
	}
	if pts[0].At != 0 {
		t.Fatalf("downsampling lost the first point: %v", pts[0])
	}
	// Max tracks every offered sample, including skipped ones.
	if s.Max() != 63 {
		t.Fatalf("Max = %d, want 63", s.Max())
	}
}

func TestSeriesMaxHandlesNegatives(t *testing.T) {
	s := newSeries("neg", 4)
	s.add(0, -5)
	if s.Max() != -5 {
		t.Fatalf("Max with single negative sample = %d, want -5", s.Max())
	}
	s.add(1, -2)
	if s.Max() != -2 {
		t.Fatalf("Max = %d, want -2", s.Max())
	}
}

func TestSamplerCollectsAndExports(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, 10, 0)
	var v int64
	s.Register("a.b", func() int64 { return v })
	s.Register("c", func() int64 { return 2 * v })
	s.Start()
	eng.At(35, func() { v = 7 })
	eng.RunUntil(50)
	s.Stop()
	if got := s.Ticks(); got != 5 {
		t.Fatalf("Ticks = %d, want 5", got)
	}
	a := s.Lookup("a.b")
	if a == nil || len(a.pts) != 5 {
		t.Fatalf("series a.b missing or wrong length: %+v", a)
	}
	// v became 7 at t=35, so samples at 40 and 50 read 7.
	want := []int64{0, 0, 0, 7, 7}
	for i, p := range a.pts {
		if p.V != want[i] {
			t.Fatalf("a.b point %d = %d, want %d", i, p.V, want[i])
		}
	}
	csv := string(s.CSV())
	if !strings.HasPrefix(csv, "series,at_ns,value\n") {
		t.Fatalf("CSV missing header: %q", csv)
	}
	if !strings.Contains(csv, "a.b,40,7\n") || !strings.Contains(csv, "c,50,14\n") {
		t.Fatalf("CSV missing expected rows:\n%s", csv)
	}
}

func TestSamplerStopDrainsQueue(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, 10, 0)
	s.Register("x", func() int64 { return 1 })
	s.Start()
	eng.RunUntil(25)
	s.Stop()
	if eng.Pending() != 0 {
		t.Fatalf("stopped sampler left %d pending events", eng.Pending())
	}
	// Run must now terminate rather than panic on an empty queue with the
	// sampler still armed.
	eng.After(5, func() {})
	eng.Run()
}

func TestNilSamplerSafe(t *testing.T) {
	var s *Sampler
	s.Register("x", func() int64 { return 1 })
	s.Start()
	s.Stop()
	if s.Ticks() != 0 || s.Period() != 0 || s.Series() != nil || s.Lookup("x") != nil {
		t.Fatal("nil sampler leaked state")
	}
	if got := string(s.CSV()); got != "series,at_ns,value\n" {
		t.Fatalf("nil sampler CSV = %q", got)
	}
}

func TestEmptySeriesExports(t *testing.T) {
	// A series registered but never ticked (the sampler armed on a system
	// that finished before the first period) must still export cleanly.
	eng := sim.NewEngine()
	s := NewSampler(eng, 10, 0)
	s.Register("never.ticked", func() int64 { return 42 })

	if got := string(s.CSV()); got != "series,at_ns,value\n" {
		t.Fatalf("empty-series CSV = %q, want header only", got)
	}

	// Per-series CSV of an empty series appends nothing.
	var b bytes.Buffer
	s.Series()[0].CSV(&b)
	if b.Len() != 0 {
		t.Fatalf("empty Series.CSV wrote %q", b.String())
	}
}
