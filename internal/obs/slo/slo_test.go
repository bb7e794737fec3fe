package slo

import (
	"testing"

	"repro/internal/sim"
)

func TestBucketBoundCoversBucketOf(t *testing.T) {
	// bucketBound(bucketOf(x)) >= x for every x below the overflow bucket,
	// and bucketOf is monotone non-decreasing in x.
	prev := 0
	for us := int64(0); us < 1<<21; us += 13 {
		x := sim.Time(us) * sim.Microsecond / 8 // sweep sub-microsecond too
		b := bucketOf(x)
		if b < prev {
			t.Fatalf("bucketOf not monotone: bucketOf(%v)=%d after %d", x, b, prev)
		}
		prev = b
		if b < numBuckets-1 && bucketBound(b) < x {
			t.Fatalf("bucketBound(bucketOf(%v)) = %v < input", x, bucketBound(b))
		}
	}
	// Bounds are monotone in bucket index.
	for i := 1; i < numBuckets; i++ {
		if bucketBound(i) < bucketBound(i-1) {
			t.Fatalf("bucketBound not monotone at %d: %v < %v",
				i, bucketBound(i), bucketBound(i-1))
		}
	}
	// Relative error of the estimate stays within the quarter-octave design
	// (~25%) away from the 1us floor.
	for us := int64(4); us < 1<<20; us = us*7/4 + 1 {
		x := sim.Time(us) * sim.Microsecond
		est := bucketBound(bucketOf(x))
		if float64(est) > 1.3*float64(x) {
			t.Fatalf("estimate %v for %v exceeds 30%% relative error", est, x)
		}
	}
}

func TestQuantileOf(t *testing.T) {
	var counts [numBuckets]int64
	// 90 samples at ~10us, 10 at ~1000us.
	b10, b1000 := bucketOf(10*sim.Microsecond), bucketOf(1000*sim.Microsecond)
	counts[b10] = 90
	counts[b1000] = 10
	if q := quantileOf(&counts, 100, 0.50); q != bucketBound(b10) {
		t.Fatalf("p50 = %v, want %v", q, bucketBound(b10))
	}
	if q := quantileOf(&counts, 100, 0.99); q != bucketBound(b1000) {
		t.Fatalf("p99 = %v, want %v", q, bucketBound(b1000))
	}
	if q := quantileOf(&counts, 0, 0.99); q != 0 {
		t.Fatalf("empty window quantile = %v, want 0", q)
	}
}

// sloHarness arms a one-objective engine over a fresh sim engine: p99 of
// reqresp under 100us with a 1ms window evaluated in 8 slices.
func sloHarness() (*sim.Engine, *Engine) {
	eng := sim.NewEngine()
	e := NewEngine(eng, Params{Objectives: []Objective{{
		Name: "rr", Kind: KindReqResp, Class: AnyClass,
		LatencyBound: 100 * sim.Microsecond, Window: sim.Millisecond,
	}}})
	return eng, e
}

// feed schedules count observations of one latency starting at t0, one per
// 10us of virtual time.
func feed(eng *sim.Engine, e *Engine, t0 sim.Time, count int, lat sim.Time, ok bool) {
	for i := 0; i < count; i++ {
		eng.At(t0+sim.Time(i)*10*sim.Microsecond, func() {
			e.Observe(KindReqResp, 0, lat, ok, 0)
		})
	}
}

func TestAlertFireLatchClear(t *testing.T) {
	eng, e := sloHarness()
	e.Start()
	// Healthy baseline, then a breach storm, then healthy again.
	feed(eng, e, 0, 100, 20*sim.Microsecond, true)
	feed(eng, e, 1*sim.Millisecond, 100, 500*sim.Microsecond, true) // all breach
	feed(eng, e, 2*sim.Millisecond, 400, 20*sim.Microsecond, true)
	eng.RunUntil(8 * sim.Millisecond)
	e.Stop()

	alerts := e.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alert stream has %d entries, want fire+clear:\n%s", len(alerts), e.Text())
	}
	fire, clear := alerts[0], alerts[1]
	if fire.Cleared || !clear.Cleared {
		t.Fatalf("stream order wrong: %+v then %+v", fire, clear)
	}
	// The fire lands inside the storm; the latch means no second fire even
	// though the storm burned for many evaluation ticks.
	if fire.At < 1*sim.Millisecond || fire.At > 2200*sim.Microsecond {
		t.Fatalf("fire at %v, want within the storm window", fire.At)
	}
	if clear.At <= fire.At {
		t.Fatalf("clear at %v not after fire at %v", clear.At, fire.At)
	}
	if fire.BurnFast < DefaultBurnThreshold || fire.BurnSlow < DefaultBurnThreshold {
		t.Fatalf("fire burns %.1f/%.1f below threshold", fire.BurnFast, fire.BurnSlow)
	}
	if e.AlertCount() != 1 {
		t.Fatalf("AlertCount = %d, want 1", e.AlertCount())
	}
	st := e.Status()
	if len(st) != 1 || st[0].Alerts != 1 || st[0].Alerting {
		t.Fatalf("status = %+v", st)
	}
	if st[0].Ops != 600 || st[0].Breaches != 100 {
		t.Fatalf("cumulative ops/breaches = %d/%d, want 600/100", st[0].Ops, st[0].Breaches)
	}
}

func TestAlertGatedByMinOps(t *testing.T) {
	eng := sim.NewEngine()
	e := NewEngine(eng, Params{
		Objectives: []Objective{{
			Name: "rr", Kind: KindReqResp, Class: AnyClass,
			LatencyBound: 100 * sim.Microsecond, Window: sim.Millisecond,
		}},
	})
	e.Start()
	// Every op breaches, but only DefaultMinOps-1 land in the fast window,
	// so the alert must never fire.
	feed(eng, e, 0, DefaultMinOps-1, 500*sim.Microsecond, true)
	eng.RunUntil(4 * sim.Millisecond)
	e.Stop()
	if n := e.AlertCount(); n != 0 {
		t.Fatalf("%d alerts fired under the MinOps gate", n)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() (string, []Alert) {
		eng, e := sloHarness()
		e.Start()
		feed(eng, e, 0, 50, 20*sim.Microsecond, true)
		feed(eng, e, 500*sim.Microsecond, 200, 300*sim.Microsecond, true)
		feed(eng, e, 3*sim.Millisecond, 300, 20*sim.Microsecond, true)
		eng.RunUntil(10 * sim.Millisecond)
		e.Stop()
		return e.Text(), e.Alerts()
	}
	text1, alerts1 := run()
	text2, alerts2 := run()
	if text1 != text2 {
		t.Fatalf("two identical runs rendered different status:\n%s\nvs\n%s", text1, text2)
	}
	if len(alerts1) != len(alerts2) {
		t.Fatalf("alert streams differ: %d vs %d", len(alerts1), len(alerts2))
	}
	for i := range alerts1 {
		if alerts1[i] != alerts2[i] {
			t.Fatalf("alert %d differs: %+v vs %+v", i, alerts1[i], alerts2[i])
		}
	}
}

func TestClassFiltering(t *testing.T) {
	eng := sim.NewEngine()
	e := NewEngine(eng, Params{Objectives: []Objective{{
		Name: "crit", Kind: KindReqResp, Class: 1,
		LatencyBound: 100 * sim.Microsecond,
	}}})
	eng.At(0, func() {
		e.Observe(KindReqResp, 0, 500*sim.Microsecond, true, 0) // other class
		e.Observe(KindReqResp, 1, 500*sim.Microsecond, true, 0) // matches
		e.Observe(KindStream, 1, 500*sim.Microsecond, true, 0)  // other kind
	})
	eng.RunUntil(sim.Microsecond)
	st := e.Status()
	if st[0].Ops != 1 || st[0].Breaches != 1 {
		t.Fatalf("class filter let through %d ops (%d breaches), want 1/1", st[0].Ops, st[0].Breaches)
	}
}

func TestExemplarsLinkBucketsToTraces(t *testing.T) {
	eng, e := sloHarness()
	eng.At(0, func() {
		e.Observe(KindReqResp, 0, 20*sim.Microsecond, true, 111)
		e.Observe(KindReqResp, 0, 20*sim.Microsecond, true, 222) // same bucket: replaces
		e.Observe(KindReqResp, 0, 900*sim.Microsecond, true, 333)
		e.Observe(KindReqResp, 0, 5*sim.Microsecond, true, 0) // untraced: no exemplar
	})
	eng.RunUntil(sim.Microsecond)
	ex := e.Exemplars("rr")
	if len(ex) != 2 {
		t.Fatalf("%d exemplars, want 2 (one per non-empty bucket): %+v", len(ex), ex)
	}
	if ex[0].TraceID != 222 || ex[1].TraceID != 333 {
		t.Fatalf("exemplar trace ids = %d, %d, want 222, 333", ex[0].TraceID, ex[1].TraceID)
	}
	if ex[0].BucketBound < 20*sim.Microsecond || ex[1].BucketBound < 900*sim.Microsecond {
		t.Fatalf("bucket bounds %v/%v below their latencies", ex[0].BucketBound, ex[1].BucketBound)
	}
	if e.Exemplars("nope") != nil {
		t.Fatal("unknown objective should yield nil exemplars")
	}
}

func TestNilEngineIsInert(t *testing.T) {
	var e *Engine
	e.Observe(KindReqResp, 0, sim.Millisecond, true, 1)
	e.Start()
	e.Stop()
	if e.Alerts() != nil || e.AlertCount() != 0 || e.Bundles() != nil ||
		e.Status() != nil || e.Exemplars("x") != nil {
		t.Fatal("nil engine accessors should be empty")
	}
	if e.Text() != "slo: engine not armed\n" {
		t.Fatalf("nil Text = %q", e.Text())
	}
}

// The acceptance bar for arming the engine fleet-wide: the disabled path is
// one pointer compare and the armed path touches only preallocated state.
func TestObserveZeroAlloc(t *testing.T) {
	var nilEngine *Engine
	if allocs := testing.AllocsPerRun(1000, func() {
		nilEngine.Observe(KindReqResp, 0, sim.Millisecond, true, 1)
	}); allocs != 0 {
		t.Fatalf("disabled Observe allocated %.1f per op", allocs)
	}

	eng, e := sloHarness()
	eng.RunUntil(sim.Microsecond)
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Observe(KindReqResp, 0, 500*sim.Microsecond, true, 42)
	}); allocs != 0 {
		t.Fatalf("armed Observe allocated %.1f per op", allocs)
	}
}

func BenchmarkObserveDisabled(b *testing.B) {
	var e *Engine
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Observe(KindReqResp, 0, sim.Millisecond, true, 1)
	}
}

func BenchmarkObserveArmed(b *testing.B) {
	eng, e := sloHarness()
	eng.RunUntil(sim.Microsecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Observe(KindReqResp, 0, 500*sim.Microsecond, true, uint64(i)+1)
	}
}
