package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
)

// The telemetry plane's core contract: arming it must not change what the
// simulation computes. The sampler and watchdog hang off the virtual clock
// and only read; the flight recorder only observes. So a load run with the
// full plane armed must produce the exact same digest — every operation,
// latency sample, and byte count — as the same run with telemetry off.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	cfg := load.Config{
		Seed:     7,
		Warmup:   sim.Millisecond,
		Duration: 6 * sim.Millisecond,
	}

	bare := load.Run(core.New(core.SingleHub(4)), cfg)

	armed := func() (*core.System, *load.Result) {
		sys := core.New(core.SingleHub(4), core.WithMetrics(), core.WithTelemetry())
		res := load.Run(sys, cfg)
		sys.StopTelemetry()
		return sys, res
	}
	sys, full := armed()
	again, _ := armed()

	if bare.Digest != full.Digest {
		t.Fatalf("telemetry changed the run: digest %x (off) vs %x (on)", bare.Digest, full.Digest)
	}
	if bare.Ops != full.Ops || bare.Bytes != full.Bytes || bare.Errors != full.Errors {
		t.Fatalf("telemetry changed counts: off ops=%d bytes=%d errs=%d, on ops=%d bytes=%d errs=%d",
			bare.Ops, bare.Bytes, bare.Errors, full.Ops, full.Bytes, full.Errors)
	}
	sa, sb := bare.Latency.Samples(), full.Latency.Samples()
	if len(sa) != len(sb) {
		t.Fatalf("latency sample counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("latency sample %d differs: %v vs %v", i, sa[i], sb[i])
		}
	}

	// And the plane must actually have been watching.
	if sys.Sampler.Ticks() == 0 {
		t.Fatal("sampler armed but never ticked")
	}
	if sys.FR.Total() == 0 {
		t.Fatal("flight recorder armed but saw no events")
	}
	congested := false
	for _, s := range sys.Sampler.Series() {
		congested = congested || strings.HasSuffix(s.Name(), ".queue_bytes") && s.Max() > 0
	}
	if !congested {
		t.Fatal("no sampled queue_bytes series saw a queued byte")
	}

	// The plane itself is deterministic: the same armed run twice exports
	// byte-identical series and records the same number of events.
	if !bytes.Equal(sys.Sampler.CSV(), again.Sampler.CSV()) {
		t.Fatal("sampler CSV differs between two identical armed runs")
	}
	if a, b := sys.FR.Total(), again.FR.Total(); a != b {
		t.Fatalf("flight recorder totals differ between two identical armed runs: %d vs %d", a, b)
	}
}
