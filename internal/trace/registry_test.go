package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestGaugeTimeWeightedMean(t *testing.T) {
	e := sim.NewEngine()
	g := NewGauge("q", e)
	// Level 0 over [0,10), 4 over [10,30), 2 over [30,40): mean = 2.5 at t=40.
	e.At(10, func() { g.Set(4) })
	e.At(30, func() { g.Add(-2) })
	e.At(40, func() {
		if g.Value() != 2 {
			t.Fatalf("Value = %d", g.Value())
		}
		if g.Max() != 4 {
			t.Fatalf("Max = %d", g.Max())
		}
		if m := g.Mean(); m != 2.5 {
			t.Fatalf("Mean = %v, want 2.5", m)
		}
	})
	e.Run()
}

func TestNilGaugeIsInert(t *testing.T) {
	var g *Gauge
	g.Set(5)
	g.Add(1)
	if g.Value() != 0 || g.Max() != 0 || g.Mean() != 0 || g.Name() != "" {
		t.Fatal("nil gauge should be inert")
	}
}

func TestRegistryInstrumentsAndSnapshot(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e)
	e.At(5, func() {
		r.Counter("tx.packets").Add(3)
		r.Gauge("tx.queue").Set(2)
		r.Histogram("tx.latency").Add(100)
		r.Histogram("tx.latency").Add(200)
		r.Func("tx.bytes", func() float64 { return 640 })
	})
	e.Run()

	// Same name returns the same instrument.
	if r.Counter("tx.packets") != r.Counter("tx.packets") {
		t.Fatal("Counter should be registered once per name")
	}

	s := r.Snapshot()
	if s.At != 5 {
		t.Fatalf("snapshot At = %v", s.At)
	}
	if s.Counters["tx.packets"] != 3 {
		t.Fatalf("counter = %d", s.Counters["tx.packets"])
	}
	if s.Gauges["tx.queue"].Value != 2 {
		t.Fatalf("gauge = %+v", s.Gauges["tx.queue"])
	}
	if h := s.Hists["tx.latency"]; h.Count != 2 || h.Min != 100 || h.Max != 200 {
		t.Fatalf("hist = %+v", h)
	}
	if s.Funcs["tx.bytes"] != 640 {
		t.Fatalf("func = %v", s.Funcs["tx.bytes"])
	}
}

func TestRegistryTextDeterministicAndSorted(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e)
	r.Counter("b.count").Inc()
	r.Counter("a.count").Inc()
	r.Gauge("z.gauge").Set(1)
	r.Func("m.metric", func() float64 { return 1.5 })
	txt := r.Text()
	if txt != r.Text() {
		t.Fatal("Text should be deterministic")
	}
	if strings.Index(txt, "a.count") > strings.Index(txt, "b.count") {
		t.Fatalf("counters not sorted:\n%s", txt)
	}
	for _, want := range []string{"a.count", "b.count", "z.gauge", "m.metric", "1.50"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Text missing %q:\n%s", want, txt)
		}
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z").Add(1)
	r.Func("f", func() float64 { return 1 })
	if r.Counter("x") != nil || r.Gauge("y") != nil || r.Histogram("z") != nil {
		t.Fatal("nil registry should hand out nil instruments")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Hists) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestNilRegistryAllocationFree(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("tx").Inc()
		r.Gauge("q").Add(1)
		r.Histogram("lat").Add(70)
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics allocated %.1f per op", allocs)
	}
}

// A registry histogram keeps at most histogramCap samples however long a
// run adds to it, while its count and moments stay exact.
func TestRegistryHistogramIsBounded(t *testing.T) {
	h := NewRegistry(sim.NewEngine()).Histogram("coll.x.latency")
	const n = 1 << 18
	var sum float64
	for i := 0; i < n; i++ {
		v := sim.Time(1 + i*7919%n)
		sum += float64(v)
		h.Add(v)
	}
	if got := len(h.Samples()); got > histogramCap {
		t.Fatalf("retained %d samples, cap %d", got, histogramCap)
	}
	if h.Count() != n || h.Min() != 1 || h.Max() != n || h.Mean() != sim.Time(sum/n) {
		t.Fatalf("Count %d, Min %v, Max %v, Mean %v; want %d, 1, %d, %v",
			h.Count(), h.Min(), h.Max(), h.Mean(), n, n, sim.Time(sum/n))
	}
}
