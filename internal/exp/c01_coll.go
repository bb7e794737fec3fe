package exp

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// C1 — the collective-communication subsystem (internal/coll). The paper's
// HUB implements hardware multicast (§4.2.2) and the CABs offload
// communication protocols from the nodes (§3.1); C1 measures the complete
// collective repertoire built on those two mechanisms: every operation at
// several payload sizes and group sizes (including non-powers-of-two) on a
// single HUB and on a 2x2 mesh, a head-to-head of the HUB-multicast
// broadcast against the point-to-point binomial tree, a determinism replay,
// and a chaos variant that flaps an inter-HUB link in the middle of a ring
// allreduce.

// c1Point is one measured collective operation.
type c1Point struct {
	Topo      string
	Group     int
	Op        string
	Bytes     int
	LatencyUs float64
}

// c1Payloads spans the small-message regime, the rd/ring crossover
// neighborhood, and bulk transfers.
var c1Payloads = []int{64, 1024, 16384}

// c1Groups includes two non-powers-of-two (exercising the fold and the
// ceil-log tree shapes) plus the full machine.
var c1Groups = []int{3, 5, 8}

var c1Ops = []string{"barrier", "bcast", "reduce", "allreduce", "gather", "scatter", "alltoall", "allgather"}

type c1Meas struct {
	op    string
	bytes int
}

// c1Sweep runs the full plan on one system and returns a point per
// measurement: latency is last-rank-exit minus first-rank-entry, with a
// barrier aligning the group before each operation. Group id 1; members are
// the first n CABs, so every member has its own CAB and the multicast path
// is eligible.
func c1Sweep(topo string, sys *core.System, n int, plan []c1Meas, opts ...coll.Option) ([]c1Point, error) {
	cabs := make([]int, n)
	for i := range cabs {
		cabs[i] = i % sys.NumCABs()
	}
	g := coll.NewGroup(sys, 1, cabs, opts...)
	starts := make([][]sim.Time, len(plan))
	ends := make([][]sim.Time, len(plan))
	for i := range plan {
		starts[i] = make([]sim.Time, n)
		ends[i] = make([]sim.Time, n)
	}
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		r := r
		c := g.Member(r)
		sys.CAB(g.CABOf(r)).Kernel.Spawn(fmt.Sprintf("c1-%d", r), func(th *kernel.Thread) {
			errs[r] = c1Body(th, c, n, r, plan, starts, ends)
		})
	}
	sys.RunUntil(2 * sim.Second)
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	pts := make([]c1Point, 0, len(plan))
	for i, m := range plan {
		lo, hi := starts[i][0], ends[i][0]
		for r := 1; r < n; r++ {
			if starts[i][r] < lo {
				lo = starts[i][r]
			}
			if ends[i][r] > hi {
				hi = ends[i][r]
			}
		}
		if hi <= lo {
			return nil, fmt.Errorf("%s/%d %s: empty measurement window", topo, n, m.op)
		}
		pts = append(pts, c1Point{Topo: topo, Group: n, Op: m.op, Bytes: m.bytes,
			LatencyUs: float64(hi-lo) / float64(sim.Microsecond)})
	}
	return pts, nil
}

// c1Body is the SPMD member: barrier-align, stamp, run the operation,
// stamp, and spot-check the result.
func c1Body(th *kernel.Thread, c *coll.Comm, n, rank int, plan []c1Meas, starts, ends [][]sim.Time) error {
	for i, m := range plan {
		if err := c.Barrier(th); err != nil {
			return err
		}
		lanes := m.bytes / 8
		if lanes < 1 {
			lanes = 1
		}
		in := make([]int64, lanes)
		for j := range in {
			in[j] = int64(rank + 1)
		}
		raw := make([]byte, m.bytes)
		for j := range raw {
			raw[j] = byte(j)
		}
		parts := make([][]byte, n)
		for j := range parts {
			parts[j] = raw
		}
		wantSum := int64(n*(n+1)) / 2

		starts[i][rank] = th.Proc().Now()
		var err error
		switch m.op {
		case "barrier":
			err = c.Barrier(th)
		case "bcast":
			var out []byte
			if rank == 0 {
				out, err = c.Bcast(th, 0, raw)
			} else {
				out, err = c.Bcast(th, 0, nil)
			}
			if err == nil && len(out) != m.bytes {
				err = fmt.Errorf("bcast returned %d bytes, want %d", len(out), m.bytes)
			}
		case "reduce":
			var out []byte
			out, err = c.Reduce(th, 0, coll.SumInt64, coll.Int64Bytes(in))
			if err == nil && rank == 0 && coll.BytesInt64(out)[0] != wantSum {
				err = fmt.Errorf("reduce sum %d, want %d", coll.BytesInt64(out)[0], wantSum)
			}
		case "allreduce":
			var out []byte
			out, err = c.Allreduce(th, coll.SumInt64, coll.Int64Bytes(in))
			if err == nil && coll.BytesInt64(out)[0] != wantSum {
				err = fmt.Errorf("allreduce sum %d, want %d", coll.BytesInt64(out)[0], wantSum)
			}
		case "gather":
			var out [][]byte
			out, err = c.Gather(th, 0, raw)
			if err == nil && rank == 0 && len(out) != n {
				err = fmt.Errorf("gather returned %d parts", len(out))
			}
		case "scatter":
			if rank == 0 {
				_, err = c.Scatter(th, 0, parts)
			} else {
				_, err = c.Scatter(th, 0, nil)
			}
		case "alltoall":
			var out [][]byte
			out, err = c.Alltoall(th, parts)
			if err == nil && len(out) != n {
				err = fmt.Errorf("alltoall returned %d parts", len(out))
			}
		case "allgather":
			var out [][]byte
			out, err = c.Allgather(th, raw)
			if err == nil && len(out) != n {
				err = fmt.Errorf("allgather returned %d parts", len(out))
			}
		}
		ends[i][rank] = th.Proc().Now()
		if err != nil {
			return fmt.Errorf("%s(%dB): %w", m.op, m.bytes, err)
		}
	}
	return nil
}

// c1Plan is the full measurement plan: barrier once, every data operation
// at every payload.
func c1Plan() []c1Meas {
	plan := []c1Meas{{"barrier", 0}}
	for _, p := range c1Payloads {
		for _, op := range c1Ops[1:] {
			plan = append(plan, c1Meas{op, p})
		}
	}
	return plan
}

// c1Bcast measures one broadcast with a forced algorithm on a fresh
// 8-CAB single-HUB system.
func c1Bcast(algo string, payload int) (float64, error) {
	sys := core.New(core.SingleHub(8))
	pts, err := c1Sweep("single-hub", sys, 8, []c1Meas{{"bcast", payload}}, coll.WithAlgorithm(algo))
	if err != nil {
		return 0, err
	}
	return pts[0].LatencyUs, nil
}

// c1Replay runs the full mesh sweep with metrics and returns the registry
// snapshot — two calls must render byte-identically.
func c1Replay() (string, error) {
	sys := core.New(core.Mesh(2, 2, 2), core.WithMetrics())
	if _, err := c1Sweep("mesh", sys, 8, c1Plan()); err != nil {
		return "", err
	}
	return sys.Reg.Text(), nil
}

// c1Chaos flaps an inter-HUB link of a 2x2 mesh in the middle of a train
// of ring allreduces and returns the registry snapshot; every sum must
// still come back exact. The payload stays small enough that eight
// concurrent rings leave headroom for the probe/heartbeat control traffic
// that drives recovery.
func c1Chaos() (string, error) {
	return collChaos(fault.CollTrain{Algo: "ring", Iters: 10, Lanes: 256})
}

// collChaos runs a train of collectives on a 2x2 mesh (HUB combining armed
// when that is the algorithm) through a 1.5 ms flap of the link between
// HUB 0 and HUB 1 and returns the registry snapshot, or the first rank's
// failure.
func collChaos(train fault.CollTrain) (string, error) {
	opts := []core.Option{core.WithMetrics(), core.WithFaultRecovery(), core.WithFlightRecorder()}
	if train.Algo == "comb" {
		opts = append(opts, core.WithHubCombining())
	}
	sys := core.New(core.Mesh(2, 2, 2), opts...)
	flap, err := fault.Named("comb", 0, sys)
	if err != nil {
		return "", err
	}
	fault.New(sys, flap).Schedule()
	out := fault.StartCollTrain(sys, train)
	sys.RunUntil(5 * sim.Second)
	sys.StopTelemetry()
	if fails := out.Failures(); len(fails) > 0 {
		return "", fails[0]
	}
	return sys.Reg.Text(), nil
}

// c1Table renders one topology's points: rows are operations, columns the
// payload sweep, at the full group size.
func c1Table(topo string, pts []c1Point) *trace.Table {
	t := trace.NewTable(fmt.Sprintf("Collective latency, %s, 8 members (us)", topo),
		"operation", "64 B", "1 KiB", "16 KiB")
	for _, op := range c1Ops {
		cells := make([]interface{}, 0, 3)
		for _, p := range c1Payloads {
			for _, pt := range pts {
				if pt.Topo == topo && pt.Group == 8 && pt.Op == op && pt.Bytes == p {
					cells = append(cells, fmt.Sprintf("%.1f", pt.LatencyUs))
				}
			}
		}
		if op == "barrier" {
			for _, pt := range pts {
				if pt.Topo == topo && pt.Group == 8 && pt.Op == op {
					cells = []interface{}{fmt.Sprintf("%.1f", pt.LatencyUs), "-", "-"}
				}
			}
		}
		t.AddRow(append([]interface{}{op}, cells...)...)
	}
	return t
}

// C1Collectives runs the collective-communication sweep.
func C1Collectives() *Result {
	var all []c1Point
	var notes []string
	pass := true

	topos := []struct {
		name string
		mk   func() *core.System
	}{
		{"single-hub", func() *core.System { return core.New(core.SingleHub(8)) }},
		{"mesh-2x2", func() *core.System { return core.New(core.Mesh(2, 2, 2)) }},
	}
	plan := c1Plan()
	for _, tp := range topos {
		for _, n := range c1Groups {
			pts, err := c1Sweep(tp.name, tp.mk(), n, plan)
			if err != nil {
				return &Result{ID: "C1", Title: "collective communication",
					Notes: []string{fmt.Sprintf("%s n=%d: %v", tp.name, n, err)}}
			}
			all = append(all, pts...)
		}
	}

	// Group-size scaling of allreduce at 1 KiB.
	scale := trace.NewTable("Allreduce 1 KiB vs group size (us)", "topology", "n=3", "n=5", "n=8")
	for _, tp := range topos {
		row := []interface{}{tp.name}
		for _, n := range c1Groups {
			for _, pt := range all {
				if pt.Topo == tp.name && pt.Group == n && pt.Op == "allreduce" && pt.Bytes == 1024 {
					row = append(row, fmt.Sprintf("%.1f", pt.LatencyUs))
				}
			}
		}
		scale.AddRow(row...)
	}

	// HUB hardware multicast against the point-to-point binomial tree.
	mcastUs, err1 := c1Bcast("mcast", 1024)
	treeUs, err2 := c1Bcast("tree", 1024)
	switch {
	case err1 != nil || err2 != nil:
		pass = false
		notes = append(notes, fmt.Sprintf("bcast comparison failed: %v %v", err1, err2))
	case mcastUs < treeUs:
		notes = append(notes, fmt.Sprintf(
			"HUB hardware multicast bcast %.1fus beats binomial tree %.1fus at 1 KiB x 8 (%.1fx)",
			mcastUs, treeUs, treeUs/mcastUs))
	default:
		pass = false
		notes = append(notes, fmt.Sprintf(
			"multicast bcast %.1fus did NOT beat the tree %.1fus", mcastUs, treeUs))
	}

	// Determinism: the instrumented mesh sweep must replay byte-identically.
	ra, errA := c1Replay()
	rb, errB := c1Replay()
	if errA != nil || errB != nil {
		pass = false
		notes = append(notes, fmt.Sprintf("replay run failed: %v %v", errA, errB))
	} else if ra != rb {
		pass = false
		notes = append(notes, "same-seed rerun was NOT byte-identical")
	} else {
		notes = append(notes, fmt.Sprintf("same-seed rerun byte-identical (%d-byte registry snapshot)", len(ra)))
	}

	// Chaos: a link flap mid-allreduce must not cost correctness or replay.
	ca, errA := c1Chaos()
	cb, errB := c1Chaos()
	if errA != nil || errB != nil {
		pass = false
		notes = append(notes, fmt.Sprintf("chaos run failed: %v %v", errA, errB))
	} else if ca != cb {
		pass = false
		notes = append(notes, "chaos rerun was NOT byte-identical")
	} else {
		notes = append(notes, "ring allreduce survived an inter-HUB link flap with exact sums, replay byte-identical")
	}

	return &Result{
		ID:    "C1",
		Title: "collective communication: offloaded operations over HUB multicast",
		Tables: []*trace.Table{
			c1Table("single-hub", all),
			c1Table("mesh-2x2", all),
			scale,
		},
		Notes: notes,
		Pass:  pass,
	}
}
