package trace

import (
	"testing"

	"repro/internal/sim"
)

// A registry may be snapshotted repeatedly during a run (Snapshot, then
// Diff against a later one). These tests pin the semantics that makes
// that safe: snapshotting is read-only — a
// gauge's time-weighted mean keeps integrating across snapshot and diff
// boundaries exactly as if nobody had looked.

func TestGaugeMeanAcrossSnapshotBoundaries(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e)
	g := r.Gauge("q")
	var mid, end GaugeValue
	// Level 0 over [0,10), 6 over [10,20): mean 3.0 at t=20.
	e.At(10, func() { g.Set(6) })
	e.At(20, func() { mid = r.Snapshot().Gauges["q"] })
	// Level 6 over [20,40): mean at t=40 is (0*10 + 6*30)/40 = 4.5, and
	// must come out the same even though a snapshot was taken at t=20.
	e.At(40, func() { end = r.Snapshot().Gauges["q"] })
	e.Run()

	if mid.Value != 6 || mid.Mean != 3.0 {
		t.Fatalf("mid snapshot = %+v, want value 6 mean 3.0", mid)
	}
	if end.Value != 6 || end.Mean != 4.5 {
		t.Fatalf("end snapshot = %+v, want value 6 mean 4.5 (snapshot must not reset the integral)", end)
	}
}

func TestGaugeAcrossDiffBoundaries(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e)
	g := r.Gauge("q")
	r.Counter("ops").Add(2)
	var before, after *Snapshot
	e.At(10, func() { g.Set(4); before = r.Snapshot() })
	e.At(30, func() {
		g.Set(8)
		r.Counter("ops").Add(5)
		after = r.Snapshot()
	})
	e.Run()

	d := after.Diff(before)
	// Counters diff to rates; gauges are levels and must carry the newer
	// absolute state — value, high-water mark, and lifetime mean.
	if d.Counters["ops"] != 5 {
		t.Fatalf("diffed counter = %d, want 5", d.Counters["ops"])
	}
	gv := d.Gauges["q"]
	if gv.Value != 8 || gv.Max != 8 {
		t.Fatalf("diffed gauge = %+v, want value 8 max 8", gv)
	}
	// Lifetime mean at t=30: 0 over [0,10), 4 over [10,30) = 8/3.
	if want := 8.0 / 3.0; gv.Mean != want {
		t.Fatalf("diffed gauge mean = %v, want %v (lifetime, not window)", gv.Mean, want)
	}
	// Diffing must not have disturbed the live gauge.
	if g.Value() != 8 || g.Max() != 8 {
		t.Fatalf("live gauge disturbed by diff: value %d max %d", g.Value(), g.Max())
	}
}
