package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/trace"
)

// P1FleetLoad exercises the deterministic workload generator of
// internal/load: a single-HUB system at saturation under each arrival
// mode and destination skew, with every configuration run twice to prove
// the digest reproduces. Per-replica determinism is what lets independent
// replicas run on separate OS threads without losing reproducibility;
// load's TestReplicasShareNothing checks that under the race detector.
func P1FleetLoad() *Result {
	t := trace.NewTable("Saturation load generator (8 CABs, one HUB, 10ms window)",
		"workload", "ops", "err", "shed", "ops/s", "MB/s", "p50 us", "p99 us", "deterministic")
	base := load.Config{
		Warmup:   sim.Millisecond,
		Duration: 10 * sim.Millisecond,
	}
	configs := []struct {
		name string
		mut  func(*load.Config)
	}{
		{"closed-loop uniform", func(c *load.Config) {}},
		{"closed-loop zipf 1.5", func(c *load.Config) { c.ZipfS = 1.5 }},
		{"closed-loop rpc-only", func(c *load.Config) { c.Mix = load.Mix{ReqResp: 1} }},
		{"open-loop 20k/CAB/s", func(c *load.Config) {
			c.Arrival = load.OpenLoop
			c.RatePerCAB = 20000
		}},
	}
	pass := true
	for _, cse := range configs {
		cfg := base
		cfg.Seed = 11
		cse.mut(&cfg)
		run := func() *load.Result { return load.Run(core.New(core.SingleHub(8)), cfg) }
		a, b := run(), run()
		det := a.Digest == b.Digest
		if !det || a.Ops == 0 || a.Errors != 0 {
			pass = false
		}
		t.AddRow(cse.name, a.Ops, a.Errors, a.Shed,
			fmt.Sprintf("%.0f", a.OpsPerSec()), fmt.Sprintf("%.1f", a.MBps()),
			fmt.Sprintf("%.1f", float64(a.Latency.Median())/1e3),
			fmt.Sprintf("%.1f", float64(a.Latency.Quantile(0.99))/1e3),
			det)
	}
	return &Result{
		ID: "P1", Title: "Fleet load generator: saturation throughput and determinism",
		Tables: []*trace.Table{t},
		Notes: []string{
			"each workload runs twice from the same seed; 'deterministic' compares the FNV digests of every completed op",
			"TestReplicasShareNothing (internal/load) runs seeded replicas of this workload concurrently under go test -race and requires the same digests",
		},
		Pass: pass,
	}
}
