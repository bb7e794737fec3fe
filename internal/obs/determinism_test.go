package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/load"
	"repro/internal/sim"
)

// The telemetry plane's core contract: arming it must not change what the
// simulation computes. The sampler and watchdog hang off the virtual clock
// and only read; the flight recorder, the flow table, the metrics registry
// and the span tracer only observe. So a load run with any of them armed
// must produce the exact same digest — every operation, latency sample, and
// byte count — as the same run with telemetry off.
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
	sameRun(t, bare, full)

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

	// Option by option, on the shape of the benchmark's observed mix: all
	// three transports plus BSP allreduce on a fiber with bit errors, so
	// the retransmit paths, the go-back-N window read-out and the
	// collective metric hooks all run. Beyond the same run, the engine must
	// have executed exactly the dark run's events plus the sampler's ticks:
	// no other instrument schedules anything.
	mixCfg := load.Config{
		Seed: 1, Arrival: load.ClosedLoop, Workers: 2,
		Warmup: 2 * sim.Millisecond, Duration: 58 * sim.Millisecond,
		Mix:           load.DefaultMix(),
		StreamBytes:   16 << 10,
		BSPSupersteps: 1 << 30, BSPBytes: 1024,
	}
	mix := func(opts ...core.Option) (*core.System, *load.Result) {
		p := core.DefaultParams()
		p.Topo.Errors = fiber.ErrorModel{BitErrorRate: 2e-5, Seed: 32}
		sys := core.New(core.SingleHub(8), append([]core.Option{core.WithParams(p)}, opts...)...)
		res := load.Run(sys, mixCfg)
		sys.StopTelemetry()
		return sys, res
	}
	darkSys, dark := mix()
	if dark.CollSteps == 0 || dark.Errors != 0 {
		t.Fatalf("dark mix: %d allreduce steps, %d errors; want some steps and no error", dark.CollSteps, dark.Errors)
	}
	all := []core.Option{core.WithSampler(), core.WithFlows(), core.WithFlightRecorder(),
		core.WithMetrics(), core.WithTraceSpans()}
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"sampler", all[0:1]},
		{"flows", all[1:2]},
		{"flight-recorder", all[2:3]},
		{"metrics", all[3:4]},
		{"trace-spans", all[4:5]},
		{"all", all},
	} {
		t.Run("mix/"+tc.name, func(t *testing.T) {
			sys, res := mix(tc.opts...)
			sameRun(t, dark, res)
			extra := sys.Eng.Executed() - darkSys.Eng.Executed()
			if ticks := uint64(sys.Sampler.Ticks()); extra != ticks {
				t.Fatalf("armed run executed %d more engine events than the dark run, want the sampler's %d ticks",
					extra, ticks)
			}
			if sys.Sampler != nil {
				var window int64
				for _, s := range sys.Sampler.Series() {
					if strings.HasSuffix(s.Name(), ".tp.window") {
						window = max(window, s.Max())
					}
				}
				if window == 0 {
					t.Fatal("no sampled stream window was ever open")
				}
			}
			if sys.Reg != nil && sys.Reg.Snapshot().Counters["coll.allreduce.count"] == 0 {
				t.Fatal("the registry counted no allreduce")
			}
		})
	}
}

// sameRun fails unless the armed run computed exactly what the dark one
// did: the same operations, bytes, errors, digest and latency samples.
func sameRun(t *testing.T, dark, armed *load.Result) {
	t.Helper()
	if dark.Digest != armed.Digest {
		t.Fatalf("telemetry changed the run: digest %x (off) vs %x (on)", dark.Digest, armed.Digest)
	}
	if dark.Ops != armed.Ops || dark.Bytes != armed.Bytes || dark.Errors != armed.Errors {
		t.Fatalf("telemetry changed counts: off ops=%d bytes=%d errs=%d, on ops=%d bytes=%d errs=%d",
			dark.Ops, dark.Bytes, dark.Errors, armed.Ops, armed.Bytes, armed.Errors)
	}
	sa, sb := dark.Latency.Samples(), armed.Latency.Samples()
	if len(sa) != len(sb) {
		t.Fatalf("latency sample counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("latency sample %d differs: %v vs %v", i, sa[i], sb[i])
		}
	}
}
