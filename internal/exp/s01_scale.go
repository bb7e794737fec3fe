package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// S1 — scale-out across topology shapes and routing policies. The paper
// scopes Nectar-1 to tens of nodes but argues the HUB/CAB architecture
// scales to "hundreds or thousands of processors" (§6); S1 measures that
// claim on the topology/routing API: an open-loop RPC fleet sweeps CAB
// count 64 → 1024 (→ 2048 with -full) across a 2-D mesh, 2-D and 3-D tori,
// and a fat tree, under both the deterministic BFS policy and the
// deadlock-free adaptive policy, recording latency quantiles, per-hop
// latency, and peak HUB queueing per point. Every point runs twice and
// must replay digest-identically. A chaos variant fails an inter-HUB link
// mid-run on a torus under adaptive routing and requires 100% delivery
// with zero stall-watchdog fires.
//
// The load is open-loop by design: closed-loop saturation on wrap-around
// tori wedges into the classic torus credit deadlock (cyclic channel
// dependencies — exactly the failure mode the adaptive policy's escape
// subnetwork is shaped to avoid, see topo.CheckEscapeAcyclic). The open
// loop does not remove coordinated omission from the latency curves,
// though: arrivals are slept on the CPU that each CAB's own load
// saturates, and latency counts from the moment the spawned client first
// runs, so queueing ahead of that moment goes unmeasured.

// S1Full widens the sweep to the 2048-CAB 3-D torus (set by
// cmd/nectar-bench -full; the default short ladder tops out at 1024).
var S1Full bool

// s1Point is one measured (shape, policy) cell of the sweep.
type s1Point struct {
	Topo      string
	CABs      int
	Hubs      int
	Policy    string
	Ops       int64
	Errors    int64
	P50Us     float64
	P99Us     float64
	AvgHops   float64
	PerHopUs  float64
	PeakQueue int
	Replay    bool
}

// s1Shape is one rung of the CAB-count ladder.
type s1Shape struct {
	name     string
	topo     core.Topology
	hubPorts int // 0: default
}

func s1Ladder(full bool) []s1Shape {
	l := []s1Shape{
		{"mesh-4x4", core.Mesh(4, 4, 4), 0},
		{"torus-4x4", core.Torus(4, 4, 4), 0},
		{"torus3d-4x4x4", core.Torus3D(4, 4, 4, 1), 0},
		{"fattree-8+4", core.FatTree(8, 4, 8), 0},
		// The headline point: a 1024-CAB 3-D torus (128 HUBs, wrap rings
		// in every dimension).
		{"torus3d-4x4x8", core.Torus3D(4, 4, 8, 8), 0},
	}
	if full {
		// 2048 CABs: 16 CABs + 6 torus links per HUB needs wider HUBs.
		l = append(l, s1Shape{"torus3d-4x4x8-wide", core.Torus3D(4, 4, 8, 16), 24})
	}
	return l
}

// s1Cfg is the fleet workload: open-loop 64/64-byte RPCs at 2000/s per CAB.
func s1Cfg() load.Config {
	return load.Config{
		Seed:       1,
		Arrival:    load.OpenLoop,
		RatePerCAB: 2000,
		Warmup:     500 * sim.Microsecond,
		Duration:   2 * sim.Millisecond,
		Mix:        load.Mix{ReqResp: 1},
		ReqBytes:   64,
		RespBytes:  64,
	}
}

// s1Build assembles one system for the given rung and policy.
func s1Build(sh s1Shape, pol topo.Policy) *core.System {
	opts := []core.Option{core.WithRouting(pol)}
	if sh.hubPorts != 0 {
		p := core.DefaultParams()
		p.Topo.HubPorts = sh.hubPorts
		opts = append(opts, core.WithParams(p), core.WithRouting(pol))
	}
	return core.New(sh.topo, opts...)
}

// s1Measure runs one (shape, policy) cell twice: the first run yields the
// measurements (latency quantiles, peak HUB-port queueing, average route
// length over sampled CAB pairs), the second verifies digest replay.
func s1Measure(sh s1Shape, pol topo.Policy) s1Point {
	cfg := s1Cfg()
	sys := s1Build(sh, pol)
	r := load.Run(sys, cfg)

	peak := 0
	for _, h := range sys.Net.Hubs() {
		for i := 0; i < h.NumPorts(); i++ {
			if q := h.Port(i).PeakQueueBytes(); q > peak {
				peak = q
			}
		}
	}
	// Average route length over up to 64 long-haul CAB pairs (i → i+n/2).
	router := topo.NewRouter(sys.Net, pol)
	n := sys.NumCABs()
	pairs, hops := 0, 0
	for i := 0; i < n && pairs < 64; i += 1 + n/64 {
		path, err := router.Route(i, (i+n/2)%n)
		if err != nil {
			continue
		}
		pairs++
		hops += len(path)
	}
	avgHops := 0.0
	if pairs > 0 {
		avgHops = float64(hops) / float64(pairs)
	}

	r2 := load.Run(s1Build(sh, pol), cfg)
	spec := sh.topo.Spec()
	pt := s1Point{
		Topo:      sh.name,
		CABs:      spec.NumCABs(),
		Hubs:      spec.NumHubs(),
		Policy:    string(pol),
		Ops:       r.Ops,
		Errors:    r.Errors,
		P50Us:     float64(r.Latency.Median()) / float64(sim.Microsecond),
		P99Us:     float64(r.Latency.Quantile(0.99)) / float64(sim.Microsecond),
		AvgHops:   avgHops,
		PeakQueue: peak,
		Replay:    r.Digest == r2.Digest && r.Ops == r2.Ops,
	}
	if avgHops > 0 {
		pt.PerHopUs = pt.P50Us / avgHops
	}
	return pt
}

// s1ChaosMsgs is the at-least-once message count for the chaos variant.
const s1ChaosMsgs = 20

// s1ChaosOutcome reports the link-failure run under adaptive routing.
type s1ChaosOutcome struct {
	*fault.TrainOutcome
	detections int
	stalls     int
	snapshot   string
}

// s1Chaos drives the at-least-once message train corner to corner across a
// 3x3 torus under the adaptive policy while an inter-HUB link on the
// preferred route fails for 10 ms. The fault-recovery stack (link probing,
// heartbeats, bounded retransmission) plus adaptive rerouting must deliver
// every message; an armed stall watchdog must never fire (no deadlock).
func s1Chaos() s1ChaosOutcome {
	sys := core.New(core.Torus(3, 3, 1), append(fault.TrainOptions(),
		core.WithFlightRecorder(), core.WithStallWatchdog(), core.WithRouting(topo.PolicyAdaptive))...)

	var out s1ChaosOutcome
	sys.OnStall = func(at sim.Time) { out.stalls++ }

	// Fail the first hop of the idle-network route 0 → 8 (the x-first
	// escape path leaves HUB 0 toward HUB 1) while messages are flowing.
	inj := fault.New(sys, fault.Scenario{Name: "s1-link-fail", Actions: []fault.Action{
		fault.LinkFlap{A: 0, B: 1, At: 2 * sim.Millisecond, Duration: 10 * sim.Millisecond},
	}})
	inj.Schedule()
	out.TrainOutcome = fault.StartTrain(sys, fault.Train{From: 0, To: 8, Msgs: s1ChaosMsgs})

	sys.RunUntil(60 * sim.Millisecond)
	out.detections = inj.DetectLatency().Count()
	out.snapshot = sys.Reg.Text()
	return out
}

// S1Scale runs the sweep and the chaos variant.
func S1Scale() *Result {
	policies := []topo.Policy{topo.PolicyBFS, topo.PolicyAdaptive}
	var all []s1Point
	pass := true
	var notes []string

	t := trace.NewTable("Scale-out: open-loop RPC fleet across shapes and policies",
		"topology", "CABs", "HUBs", "policy", "ops", "p50", "p99", "hops", "per-hop p50", "peak queue", "replay")
	for _, sh := range s1Ladder(S1Full) {
		for _, pol := range policies {
			pt := s1Measure(sh, pol)
			all = append(all, pt)
			rep := "identical"
			if !pt.Replay {
				rep = "DIVERGED"
				pass = false
				notes = append(notes, fmt.Sprintf("%s/%s: same-seed rerun digest diverged", pt.Topo, pt.Policy))
			}
			if pt.Ops == 0 || pt.Errors != 0 {
				pass = false
				notes = append(notes, fmt.Sprintf("%s/%s: ops=%d errors=%d", pt.Topo, pt.Policy, pt.Ops, pt.Errors))
			}
			t.AddRow(pt.Topo, pt.CABs, pt.Hubs, pt.Policy, pt.Ops,
				fmt.Sprintf("%.1fus", pt.P50Us), fmt.Sprintf("%.1fus", pt.P99Us),
				fmt.Sprintf("%.2f", pt.AvgHops), fmt.Sprintf("%.1fus", pt.PerHopUs),
				pt.PeakQueue, rep)
		}
	}

	// The adaptive-vs-deterministic claim at the headline 1024-CAB point:
	// under identical open-loop offered load, misrouting around congested
	// ports should complete at least as many RPCs with a tighter tail.
	var big [2]*s1Point
	for i := range all {
		if all[i].Topo == "torus3d-4x4x8" {
			if all[i].Policy == string(topo.PolicyBFS) {
				big[0] = &all[i]
			} else {
				big[1] = &all[i]
			}
		}
	}
	if big[0] != nil && big[1] != nil {
		if big[1].Ops >= big[0].Ops {
			notes = append(notes, fmt.Sprintf(
				"1024-CAB 3-D torus: adaptive completed %d ops (p99 %.0fus) vs BFS %d (p99 %.0fus)",
				big[1].Ops, big[1].P99Us, big[0].Ops, big[0].P99Us))
		} else {
			pass = false
			notes = append(notes, fmt.Sprintf(
				"1024-CAB 3-D torus: adaptive %d ops fell below BFS %d", big[1].Ops, big[0].Ops))
		}
	} else {
		pass = false
		notes = append(notes, "1024-CAB point missing from the sweep")
	}

	// Chaos: adaptive routing around a failed inter-HUB link, replayed.
	ca := s1Chaos()
	cb := s1Chaos()
	switch {
	case ca.Delivered != s1ChaosMsgs || ca.DoneAt == 0:
		pass = false
		notes = append(notes, fmt.Sprintf("chaos: %d/%d messages delivered", ca.Delivered, s1ChaosMsgs))
	case ca.stalls != 0:
		pass = false
		notes = append(notes, fmt.Sprintf("chaos: stall watchdog fired %d times (deadlock)", ca.stalls))
	case ca.detections == 0:
		pass = false
		notes = append(notes, "chaos: link failure was never detected")
	case ca.snapshot != cb.snapshot:
		pass = false
		notes = append(notes, "chaos rerun was NOT byte-identical")
	default:
		notes = append(notes, fmt.Sprintf(
			"chaos: adaptive routing rerouted around a failed inter-HUB link, %d/%d delivered by %v, 0 stalls, replay byte-identical",
			ca.Delivered, s1ChaosMsgs, ca.DoneAt))
	}

	return &Result{
		ID:     "S1",
		Title:  "scale-out: topology shapes and routing policies, 64 → 1024+ CABs",
		Tables: []*trace.Table{t},
		Notes:  notes,
		Pass:   pass,
	}
}
