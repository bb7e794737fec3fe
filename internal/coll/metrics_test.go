package coll

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

// TestMetricsRegisterOnFirstUse: the metric hooks register an instrument
// the first time a collective needs it, so after one allreduce the registry
// lists exactly that collective's latency and count and the counter of the
// algorithm it chose.
func TestMetricsRegisterOnFirstUse(t *testing.T) {
	sys := core.New(core.SingleHub(8), core.WithMetrics())
	g := NewGroup(sys, 1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	runMembers(t, sys, g, func(th *kernel.Thread, c *Comm) error {
		_, err := c.Allreduce(th, SumInt64, Int64Bytes([]int64{int64(c.rank)}))
		return err
	})
	snap := sys.Reg.Snapshot()
	var got []string
	for n := range snap.Counters {
		if strings.HasPrefix(n, "coll.") {
			got = append(got, n)
		}
	}
	for n := range snap.Hists {
		if strings.HasPrefix(n, "coll.") {
			got = append(got, n)
		}
	}
	slices.Sort(got)
	want := []string{"coll.allreduce.algo.rd", "coll.allreduce.count", "coll.allreduce.latency"}
	if !slices.Equal(got, want) {
		t.Fatalf("coll instruments after one allreduce: %v, want %v", got, want)
	}
	if n := snap.Counters["coll.allreduce.count"]; n != 8 {
		t.Fatalf("coll.allreduce.count = %d, want one per rank (8)", n)
	}
	if n := snap.Counters["coll.allreduce.algo.rd"]; n != 8 {
		t.Fatalf("coll.allreduce.algo.rd = %d, want one per rank (8)", n)
	}
}

// TestMetricHooksAllocateNothing: once an instrument is registered, a
// collective's latency, count and algorithm hooks reuse it and allocate
// nothing; with no registry they touch no instrument at all.
func TestMetricHooksAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{{"armed", []core.Option{core.WithMetrics()}}, {"dark", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := core.New(core.SingleHub(2), tc.opts...)
			g := NewGroup(sys, 1, []int{0, 1})
			c := g.comms[0]
			start := sys.CAB(0).Kernel.NewSem(0)
			ran := 0
			sys.CAB(0).Kernel.SpawnDaemon("op", func(th *kernel.Thread) {
				for {
					start.P(th)
					err := c.op(th, "allreduce", func(uint32) error {
						g.pick("allreduce", 8, &SumInt64)
						return nil
					})
					if err != nil {
						t.Errorf("op: %v", err)
					}
					ran++
				}
			})
			round := func() {
				start.V()
				sys.Run()
			}
			round() // the first use registers the armed instruments
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Fatalf("a collective's metric hooks allocate %.2f/op, want 0", allocs)
			}
			if ran != 102 {
				t.Fatalf("%d ops ran, want 102", ran)
			}
			if armed := sys.Reg != nil; armed != (g.opMetrics != nil && g.algoCounts != nil) {
				t.Fatalf("armed=%v, but the group holds instruments %v / %v", armed, g.opMetrics, g.algoCounts)
			}
		})
	}
}
