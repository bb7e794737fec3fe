package coll_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hub/comb"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func TestCombAllreduceSingleHub(t *testing.T) {
	// With combining armed on a single HUB, auto selection takes the comb
	// path for the built-in 8-byte operators and the HUB computes the sum.
	for _, algo := range []string{"auto", "comb"} {
		t.Run(algo, func(t *testing.T) {
			sys := core.New(core.SingleHub(8), core.WithMetrics(), core.WithHubCombining())
			g := coll.NewGroup(sys, 1, seqCABs(8), coll.WithAlgorithm(algo))
			spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
				in := coll.Int64Bytes([]int64{int64(c.Rank() + 1), -int64(c.Rank())})
				out, err := c.Allreduce(th, coll.SumInt64, in)
				if err != nil {
					return err
				}
				vals := coll.BytesInt64(out)
				if vals[0] != 36 || vals[1] != -28 {
					return fmt.Errorf("rank %d: got %v, want [36 -28]", c.Rank(), vals)
				}
				return nil
			})
			txt := sys.Reg.Text()
			if !strings.Contains(txt, "coll.allreduce.algo.comb") {
				t.Fatal("combining algorithm was not selected")
			}
			if !strings.Contains(txt, "coll.comb.hub_combined") {
				t.Fatal("no lane was hub-combined")
			}
		})
	}
}

func TestCombAllreduceMaxAndFloat(t *testing.T) {
	sys := core.New(core.SingleHub(6), core.WithHubCombining())
	g := coll.NewGroup(sys, 1, seqCABs(6), coll.WithAlgorithm("comb"))
	floats := make([][]byte, 6)
	spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
		mx, err := c.Allreduce(th, coll.MaxInt64, coll.Int64Bytes([]int64{int64(c.Rank()) - 3}))
		if err != nil {
			return err
		}
		if v := coll.BytesInt64(mx)[0]; v != 2 {
			return fmt.Errorf("rank %d max: got %d, want 2", c.Rank(), v)
		}
		// 1.5*(r+1) sums exactly in binary: 1.5+3+4.5+6+7.5+9 = 31.5.
		fs, err := c.Allreduce(th, coll.SumFloat64, coll.Float64Bytes([]float64{1.5 * float64(c.Rank()+1)}))
		if err != nil {
			return err
		}
		floats[c.Rank()] = fs
		if v := coll.BytesFloat64(fs)[0]; v != 31.5 {
			return fmt.Errorf("rank %d fsum: got %v, want 31.5", c.Rank(), v)
		}
		return nil
	})
	for r := 1; r < 6; r++ {
		if !bytes.Equal(floats[r], floats[0]) {
			t.Errorf("rank %d float sum not bit-identical to rank 0", r)
		}
	}
}

func TestCombAllreduceMultiHubHierarchical(t *testing.T) {
	// Eight ranks across the four HUBs of a 2x2 mesh: combine within each
	// HUB, leaders exchange across HUBs, distribute back down.
	sys := core.New(core.Mesh(2, 2, 2), core.WithMetrics(), core.WithHubCombining())
	g := coll.NewGroup(sys, 1, seqCABs(8), coll.WithAlgorithm("comb"))
	spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
		for i := 0; i < 4; i++ {
			in := coll.Int64Bytes([]int64{int64(c.Rank() + i), 7, int64(i)})
			out, err := c.Allreduce(th, coll.SumInt64, in)
			if err != nil {
				return err
			}
			vals := coll.BytesInt64(out)
			if vals[0] != int64(28+8*i) || vals[1] != 56 || vals[2] != int64(8*i) {
				return fmt.Errorf("rank %d iter %d: got %v", c.Rank(), i, vals)
			}
		}
		return nil
	})
	if !strings.Contains(sys.Reg.Text(), "coll.comb.hub_combined") {
		t.Fatal("no lane was hub-combined on the mesh")
	}
}

func TestCombReduceSurfacesOnlyAtRoot(t *testing.T) {
	sys := core.New(core.SingleHub(5), core.WithHubCombining())
	g := coll.NewGroup(sys, 1, seqCABs(5))
	got := make([][]byte, 5)
	spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
		out, err := c.Reduce(th, 3, coll.SumInt64, coll.Int64Bytes([]int64{int64(c.Rank() + 1)}))
		got[c.Rank()] = out
		return err
	})
	for r := 0; r < 5; r++ {
		if r == 3 {
			if vals := coll.BytesInt64(got[r]); len(vals) != 1 || vals[0] != 15 {
				t.Fatalf("root got %v, want [15]", vals)
			}
		} else if got[r] != nil {
			t.Fatalf("non-root rank %d got a result", r)
		}
	}
}

func TestCombBarrierOrdering(t *testing.T) {
	for _, topo := range []struct {
		name string
		opts []core.Option
		mesh bool
	}{
		{"single-hub", nil, false},
		{"mesh", nil, true},
	} {
		t.Run(topo.name, func(t *testing.T) {
			var sys *core.System
			if topo.mesh {
				sys = core.New(core.Mesh(2, 2, 2), core.WithHubCombining())
			} else {
				sys = core.New(core.SingleHub(8), core.WithHubCombining())
			}
			g := coll.NewGroup(sys, 1, seqCABs(8), coll.WithAlgorithm("comb"))
			exits := make([]sim.Time, 8)
			var lastEntry sim.Time
			spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
				th.Sleep(sim.Time(c.Rank()) * 20 * sim.Microsecond)
				if at := th.Proc().Now(); at > lastEntry {
					lastEntry = at
				}
				if err := c.Barrier(th); err != nil {
					return err
				}
				exits[c.Rank()] = th.Proc().Now()
				return nil
			})
			for r, at := range exits {
				if at < lastEntry {
					t.Errorf("rank %d left the barrier at %v, before last entry %v", r, at, lastEntry)
				}
			}
		})
	}
}

func TestCombStragglerTimeoutForcesExactFallback(t *testing.T) {
	// Members arrive four straggler timeouts apart: early contributors'
	// slots flush partial, late ones get lone watermark verdicts, and
	// every member degrades to the endpoint fold — the results must still
	// be exact (never mixing combined and folded lanes).
	sys := core.New(core.SingleHub(6), core.WithMetrics(), core.WithHubCombining())
	g := coll.NewGroup(sys, 1, seqCABs(6), coll.WithAlgorithm("comb"))
	spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
		th.Sleep(sim.Time(c.Rank()) * 4 * comb.DefaultTimeout)
		in := make([]int64, 4)
		for j := range in {
			in[j] = int64(c.Rank()+1) * int64(j+1)
		}
		out, err := c.Allreduce(th, coll.SumInt64, coll.Int64Bytes(in))
		if err != nil {
			return err
		}
		for j, v := range coll.BytesInt64(out) {
			if want := int64(21) * int64(j+1); v != want {
				return fmt.Errorf("rank %d lane %d: got %d, want %d", c.Rank(), j, v, want)
			}
		}
		return nil
	})
	if !strings.Contains(sys.Reg.Text(), "coll.comb.fallback") {
		t.Fatal("straggler timeouts never forced the endpoint fallback")
	}
}

func TestCombOversizePayloadFallsBackToEndpointAlgorithms(t *testing.T) {
	// Payloads beyond CombMaxLanes lanes are not eligible: auto selection
	// must route them to rd/ring even with combining armed.
	sys := core.New(core.SingleHub(4), core.WithMetrics(), core.WithHubCombining())
	g := coll.NewGroup(sys, 1, seqCABs(4))
	const vals = 8 * coll.CombMaxLanes // 8x over the lane bound
	spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
		in := make([]int64, vals)
		for j := range in {
			in[j] = int64(c.Rank() + j)
		}
		out, err := c.Allreduce(th, coll.SumInt64, coll.Int64Bytes(in))
		if err != nil {
			return err
		}
		for j, v := range coll.BytesInt64(out) {
			if want := int64(6 + 4*j); v != want {
				return fmt.Errorf("lane %d: got %d, want %d", j, v, want)
			}
		}
		return nil
	})
	if strings.Contains(sys.Reg.Text(), "coll.allreduce.algo.comb") {
		t.Fatal("oversize payload took the combining path")
	}
}

// TestNonCommutativeAutoRoutesToTree is the regression test for the
// auto-selection bug: a non-commutative operator must never land on the
// rank-order-dependent rd/ring/comb paths. Auto routes it to the tree,
// which folds in ascending rank order and returns the exact left fold.
func TestNonCommutativeAutoRoutesToTree(t *testing.T) {
	// keepEnds is associative but not commutative: it keeps the left
	// operand's first 4 bytes and the right operand's last 4 bytes, so the
	// full fold is (rank 0's head, rank n-1's tail).
	keepEnds := coll.Op{Name: "keep_ends", Elem: 8, Combine: func(dst, src []byte) {
		copy(dst[4:8], src[4:8])
	}}
	sys := core.New(core.SingleHub(6), core.WithMetrics(), core.WithHubCombining())
	g := coll.NewGroup(sys, 1, seqCABs(6))
	spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
		r := byte(c.Rank() + 1)
		in := []byte{r, r, r, r, 10 * r, 10 * r, 10 * r, 10 * r}
		out, err := c.Allreduce(th, keepEnds, in)
		if err != nil {
			return err
		}
		want := []byte{1, 1, 1, 1, 60, 60, 60, 60}
		if !bytes.Equal(out, want) {
			return fmt.Errorf("rank %d: got %v, want %v", c.Rank(), out, want)
		}
		return nil
	})
	txt := sys.Reg.Text()
	if !strings.Contains(txt, "coll.allreduce.algo.tree") {
		t.Fatal("non-commutative operator did not select the tree")
	}
	if strings.Contains(txt, "coll.allreduce.algo.comb") || strings.Contains(txt, "coll.allreduce.algo.rd") {
		t.Fatal("non-commutative operator reached a rank-order-dependent path")
	}
}

// TestNonCommutativeForcedAlgorithmPanics pins the contract: forcing a
// rank-order-dependent algorithm onto a non-commutative operator is a
// programming error, rejected with a descriptive panic instead of
// silently producing layout-dependent results.
func TestNonCommutativeForcedAlgorithmPanics(t *testing.T) {
	nc := coll.Op{Name: "left_wins", Elem: 8, Combine: func(dst, src []byte) {}}
	for _, algo := range []string{"rd", "ring", "comb"} {
		t.Run(algo, func(t *testing.T) {
			sys := core.New(core.SingleHub(4), core.WithHubCombining())
			g := coll.NewGroup(sys, 1, seqCABs(4), coll.WithAlgorithm(algo))
			msgs := make([]string, 4)
			spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
				defer func() {
					if r := recover(); r != nil {
						msgs[c.Rank()] = fmt.Sprint(r)
					}
				}()
				_, _ = c.Allreduce(th, nc, make([]byte, 8))
				return nil
			})
			for r, m := range msgs {
				if !strings.Contains(m, "nectar:") || !strings.Contains(m, "not commutative") {
					t.Fatalf("rank %d panic = %q, want a descriptive nectar: message", r, m)
				}
			}
		})
	}
}

// TestCombInvisibleWhenDark pins digest invisibility: a system without
// WithHubCombining carries no combining state — no comb metrics, no comb
// algorithm selections — so its telemetry is indistinguishable from a
// build without the feature.
func TestCombInvisibleWhenDark(t *testing.T) {
	sys := core.New(core.SingleHub(8), core.WithMetrics(), core.WithTelemetry())
	g := coll.NewGroup(sys, 1, seqCABs(8))
	spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
		if _, err := c.Allreduce(th, coll.SumInt64, coll.Int64Bytes([]int64{1})); err != nil {
			return err
		}
		if _, err := c.Reduce(th, 0, coll.SumInt64, coll.Int64Bytes([]int64{1})); err != nil {
			return err
		}
		return c.Barrier(th)
	})
	if txt := sys.Reg.Text(); strings.Contains(txt, "comb") {
		t.Fatalf("dark system leaks combining state:\n%s", txt)
	}
}

// TestCombAllreduceUnderFaults drives combining allreduces through a link
// flap plus a neighbor-CAB crash: lanes that lose their combining command
// (or their straggler) degrade to the endpoint fold, every member still
// computes the exact sum (100% delivery), and a same-seed rerun is
// byte-identical.
func TestCombAllreduceUnderFaults(t *testing.T) {
	run := func() string {
		sys := core.New(core.Mesh(2, 2, 2), core.WithMetrics(), core.WithFaultRecovery(),
			core.WithFlightRecorder(), core.WithHubCombining())
		// Seven members; CAB 7 stays outside the group and crashes.
		g := coll.NewGroup(sys, 1, seqCABs(7), coll.WithAlgorithm("comb"), coll.WithMaxRetries(16))
		inj := fault.New(sys, fault.Scenario{Name: "comb-chaos", Actions: []fault.Action{
			fault.LinkFlap{A: 0, B: 1, At: 2 * sim.Millisecond, Duration: 1500 * sim.Microsecond},
			fault.CrashCAB{CAB: 7, At: 2500 * sim.Microsecond, RebootAfter: 2 * sim.Millisecond},
		}})
		inj.Schedule()
		spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
			for i := 0; i < 25; i++ {
				th.Sleep(500 * sim.Microsecond)
				in := coll.Int64Bytes([]int64{int64(c.Rank() + 1), int64(i)})
				out, err := c.Allreduce(th, coll.SumInt64, in)
				if err != nil {
					return fmt.Errorf("iter %d: %w", i, err)
				}
				vals := coll.BytesInt64(out)
				if vals[0] != 28 || vals[1] != int64(7*i) {
					return fmt.Errorf("iter %d: rank %d got %v, want [28 %d]", i, c.Rank(), vals, 7*i)
				}
			}
			return nil
		})
		return sys.Reg.Text()
	}
	if a, b := run(), run(); a != b {
		t.Fatal("same-seed combining chaos runs diverged")
	}
}

// TestCombBarrierUnderFaults releases combining barriers across the fault
// window; no member may escape early and none may wedge.
func TestCombBarrierUnderFaults(t *testing.T) {
	sys := core.New(core.Mesh(2, 2, 2), core.WithMetrics(), core.WithFaultRecovery(),
		core.WithFlightRecorder(), core.WithHubCombining())
	g := coll.NewGroup(sys, 1, seqCABs(8), coll.WithAlgorithm("comb"), coll.WithMaxRetries(16))
	inj := fault.New(sys, fault.Scenario{Name: "comb-barrier-chaos", Actions: []fault.Action{
		fault.LinkFlap{A: 0, B: 1, At: 2 * sim.Millisecond, Duration: 1500 * sim.Microsecond},
	}})
	inj.Schedule()
	spmd(t, sys, g, func(th *kernel.Thread, c *coll.Comm) error {
		for i := 0; i < 25; i++ {
			th.Sleep(500 * sim.Microsecond)
			th.Sleep(sim.Time(c.Rank()*13) * sim.Microsecond)
			if err := c.Barrier(th); err != nil {
				return fmt.Errorf("iter %d: %w", i, err)
			}
		}
		return nil
	})
}
