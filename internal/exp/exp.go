// Package exp is the experiment harness: it regenerates, as tables, every
// quantitative claim and architecture figure of the paper (E1-E12, F1) and
// the ablations and extensions built on them (the experiment index of
// DESIGN.md §4). A claim a package test or CLI golden already checks is
// not re-run here. cmd/nectar-bench prints all of them;
// testdata/<ID>.golden pins each rendering; EXPERIMENTS.md records
// paper-vs-measured.
package exp

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*trace.Table
	Notes  []string
	// Pass reports whether the paper's claim held in this run (shape,
	// not absolute numbers).
	Pass bool
}

// String renders the result.
func (r *Result) String() string {
	var b strings.Builder
	status := "OK"
	if !r.Pass {
		status = "MISMATCH"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", r.ID, r.Title, status)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func() *Result
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "hub-latency", E1HubLatency},
		{"E2", "bandwidth", E2Bandwidth},
		{"E3", "latency-goals", E3LatencyGoals},
		{"E4", "kernel", E4Kernel},
		{"E5", "vs-lan", E5VsLAN},
		{"E6", "multi-hub", E6MultiHub},
		{"E7", "multicast", E7Multicast},
		{"E8", "transports", E8Transports},
		{"E9", "node-interfaces", E9NodeInterfaces},
		{"E10", "packet-pipeline", E10Pipeline},
		{"E11", "contention", E11Contention},
		{"E12", "applications", E12Apps},
		{"F1", "topologies", F1Topologies},
		{"A1", "ack-fast-path", A1AckFastPath},
		{"A2", "window", A2Window},
		{"A3", "offload", A3Offload},
		{"X1", "vlsi-scale-up", X1VLSIScaleUp},
		{"X2", "hundred-nodes", X2HundredNodes},
		{"X3", "vmtp", X3VMTP},
		{"X4", "dsm", X4DSM},
		{"T1", "latency-breakdown", T1LatencyBreakdown},
		{"R2", "overload-brownout", R2Overload},
		{"O2", "flow-observatory", O2FlowObservatory},
		{"O3", "slo-engine", O3SLOEngine},
		{"C1", "collectives", C1Collectives},
		{"C2", "hub-combining", C2Combining},
		{"S1", "scale-out", S1Scale},
	}
}

// ByID returns the experiment with the given ID (case-insensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) || strings.EqualFold(e.Name, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
