package trace

import (
	"testing"

	"repro/internal/sim"
)

// A registry may be snapshotted repeatedly during a run. This test pins
// the semantics that makes that safe: snapshotting is read-only — a
// gauge's time-weighted mean keeps integrating across snapshot boundaries
// exactly as if nobody had looked.

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
