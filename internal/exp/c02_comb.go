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

// C2 — in-network combining (internal/hub/comb). The HUB's central
// controller already serializes every command; the combining engine rides
// that position to merge reduction operands and barrier arrivals at the
// switch (NYU-Ultracomputer-style fetch-and-add combining), so a
// reduce/allreduce/barrier costs one command and one reply per member
// instead of log2(n) endpoint rounds. C2 benchmarks the combining path
// against the best endpoint algorithm (min of rd and tree) for allreduce
// and barrier across group sizes on a single wide HUB and on a 4x4x4
// torus (hierarchical combining), verifies that armed telemetry does not
// perturb combining results (FNV digest equality), and drives a
// combining train through a link flap (exact sums, byte-identical
// replay).

// c2Sizes sweeps the group size; 254 is the coll box-space ceiling
// (MaxMembers), standing in for the "hundreds of members" regime.
var c2Sizes = []int{8, 64, 254}

// c2Payload is the allreduce payload: two 8-byte lanes, the latency-bound
// small-reduction regime combining targets.
const c2Payload = 16

// c2System builds one benchmark system with enough HUB ports for the
// group and combining armed or dark.
func c2System(topo string, n int, combining bool) *core.System {
	p := core.DefaultParams()
	var shape core.Topology
	switch topo {
	case "single-hub":
		shape = core.SingleHub(n)
		if n > p.Topo.HubPorts {
			p.Topo.HubPorts = n
		}
	default: // torus-4x4x4
		shape = core.Torus3D(4, 4, 4, 4)
	}
	p.HubCombining = combining
	return core.New(shape, core.WithParams(p))
}

// c2Measure runs one barrier-aligned allreduce + barrier measurement on a
// fresh system and returns the two latencies (max exit minus min entry).
func c2Measure(topo string, n int, algo string, combining bool) (allUs, barUs float64, err error) {
	sys := c2System(topo, n, combining)
	cabs := make([]int, n)
	for i := range cabs {
		cabs[i] = i % sys.NumCABs()
	}
	g := coll.NewGroup(sys, 1, cabs, coll.WithAlgorithm(algo))
	const meas = 2 // 0: allreduce, 1: barrier
	starts := [meas][]sim.Time{make([]sim.Time, n), make([]sim.Time, n)}
	ends := [meas][]sim.Time{make([]sim.Time, n), make([]sim.Time, n)}
	errs := make([]error, n)
	wantSum := int64(n) * int64(n+1) / 2
	for r := 0; r < n; r++ {
		r := r
		c := g.Member(r)
		sys.CAB(g.CABOf(r)).Kernel.Spawn(fmt.Sprintf("c2-%d", r), func(th *kernel.Thread) {
			errs[r] = func() error {
				// Warm the transport and group state before timing.
				if _, err := c.Allreduce(th, coll.SumInt64, coll.Int64Bytes(make([]int64, c2Payload/8))); err != nil {
					return err
				}
				if err := c.Barrier(th); err != nil {
					return err
				}
				starts[0][r] = th.Proc().Now()
				out, err := c.Allreduce(th, coll.SumInt64,
					coll.Int64Bytes([]int64{int64(r + 1), -int64(r + 1)}))
				if err != nil {
					return err
				}
				ends[0][r] = th.Proc().Now()
				if v := coll.BytesInt64(out); v[0] != wantSum || v[1] != -wantSum {
					return fmt.Errorf("allreduce got %v, want [%d %d]", v, wantSum, -wantSum)
				}
				if err := c.Barrier(th); err != nil {
					return err
				}
				starts[1][r] = th.Proc().Now()
				if err := c.Barrier(th); err != nil {
					return err
				}
				ends[1][r] = th.Proc().Now()
				return nil
			}()
		})
	}
	sys.RunUntil(10 * sim.Second)
	for r, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("%s n=%d %s rank %d: %w", topo, n, algo, r, err)
		}
	}
	span := func(i int) float64 {
		lo, hi := starts[i][0], ends[i][0]
		for r := 1; r < n; r++ {
			if starts[i][r] < lo {
				lo = starts[i][r]
			}
			if ends[i][r] > hi {
				hi = ends[i][r]
			}
		}
		return float64(hi-lo) / float64(sim.Microsecond)
	}
	return span(0), span(1), nil
}

// c2Digest runs a combining workload and folds every rank's results and
// completion times into an FNV-1a digest: the armed-telemetry run must
// match the dark run bit for bit (observation does not perturb).
func c2Digest(telemetry bool) (uint64, error) {
	opts := []core.Option{core.WithHubCombining()}
	if telemetry {
		opts = append(opts, core.WithMetrics(), core.WithTelemetry())
	}
	sys := core.New(core.Mesh(2, 2, 2), opts...)
	cabs := make([]int, 8)
	for i := range cabs {
		cabs[i] = i
	}
	g := coll.NewGroup(sys, 1, cabs, coll.WithAlgorithm("comb"))
	outs := make([][]byte, 8)
	times := make([]sim.Time, 8)
	errs := make([]error, 8)
	for r := 0; r < 8; r++ {
		r := r
		c := g.Member(r)
		sys.CAB(r).Kernel.Spawn(fmt.Sprintf("c2-digest-%d", r), func(th *kernel.Thread) {
			for i := 0; i < 8; i++ {
				out, err := c.Allreduce(th, coll.SumInt64,
					coll.Int64Bytes([]int64{int64(r + i), int64(r * i)}))
				if err != nil {
					errs[r] = err
					return
				}
				outs[r] = append(outs[r], out...)
				if err := c.Barrier(th); err != nil {
					errs[r] = err
					return
				}
			}
			times[r] = th.Proc().Now()
		})
	}
	sys.RunUntil(5 * sim.Second)
	sys.StopTelemetry()
	for r, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	digest := trace.NewDigest()
	for r := 0; r < 8; r++ {
		for _, b := range outs[r] {
			digest.Byte(b)
		}
		digest.Uint64(uint64(times[r]))
	}
	return uint64(digest), nil
}

// c2Chaos drives a train of combining allreduces through an inter-HUB
// link flap: lanes keep combining at their local HUBs while the leader
// exchange reroutes and retries, every sum must come back exact, and a
// same-seed rerun must be byte-identical.
func c2Chaos() (string, error) {
	return collChaos(fault.CollTrain{Algo: "comb", Iters: 10, Lanes: 1})
}

// C2Combining runs the in-network combining benchmark.
func C2Combining() *Result {
	var notes []string
	pass := true

	type cell struct{ all, bar float64 }
	// best[topo][n] is the best endpoint algorithm; comb[topo][n] the
	// combining path.
	topos := []string{"single-hub", "torus-4x4x4"}
	tables := make([]*trace.Table, 0, len(topos))
	for _, topo := range topos {
		t := trace.NewTable(fmt.Sprintf("Allreduce %dB / barrier latency, %s (us)", c2Payload, topo),
			"group", "comb allreduce", "best endpoint", "comb barrier", "best endpoint")
		for _, n := range c2Sizes {
			var comb cell
			best := cell{all: -1, bar: -1}
			for _, algo := range []string{"comb", "rd", "tree"} {
				allUs, barUs, err := c2Measure(topo, n, algo, algo == "comb")
				if err != nil {
					return &Result{ID: "C2", Title: "in-network combining",
						Notes: []string{err.Error()}}
				}
				if algo == "comb" {
					comb = cell{allUs, barUs}
				} else {
					if best.all < 0 || allUs < best.all {
						best.all = allUs
					}
					if best.bar < 0 || barUs < best.bar {
						best.bar = barUs
					}
				}
			}
			t.AddRow(n, fmt.Sprintf("%.1f", comb.all), fmt.Sprintf("%.1f", best.all),
				fmt.Sprintf("%.1f", comb.bar), fmt.Sprintf("%.1f", best.bar))
			// The acceptance bar: at scale, merging at the switch must beat
			// the best endpoint algorithm on both operations.
			if n >= 64 && (comb.all >= best.all || comb.bar >= best.bar) {
				pass = false
				notes = append(notes, fmt.Sprintf(
					"%s n=%d: combining (%.1f/%.1f us) did NOT beat the best endpoint algorithm (%.1f/%.1f us)",
					topo, n, comb.all, comb.bar, best.all, best.bar))
			}
		}
		tables = append(tables, t)
	}
	if pass {
		notes = append(notes, "HUB combining beats the best endpoint algorithm on allreduce and barrier at n >= 64 on both topologies")
	}

	// Observation must not perturb: armed telemetry, identical results.
	dark, errA := c2Digest(false)
	armed, errB := c2Digest(true)
	switch {
	case errA != nil || errB != nil:
		pass = false
		notes = append(notes, fmt.Sprintf("digest run failed: %v %v", errA, errB))
	case dark != armed:
		pass = false
		notes = append(notes, fmt.Sprintf("armed-telemetry digest %016x diverged from dark %016x", armed, dark))
	default:
		notes = append(notes, fmt.Sprintf("armed-vs-dark telemetry digest identical (%016x)", dark))
	}

	// Chaos: combining through a link flap, exact and replayable.
	ca, errA := c2Chaos()
	cb, errB := c2Chaos()
	switch {
	case errA != nil || errB != nil:
		pass = false
		notes = append(notes, fmt.Sprintf("chaos run failed: %v %v", errA, errB))
	case ca != cb:
		pass = false
		notes = append(notes, "chaos rerun was NOT byte-identical")
	default:
		notes = append(notes, "combining allreduce survived an inter-HUB link flap with exact sums, replay byte-identical")
	}

	return &Result{
		ID:     "C2",
		Title:  "in-network combining: reduction and barriers inside the HUB",
		Tables: tables,
		Notes:  notes,
		Pass:   pass,
	}
}
