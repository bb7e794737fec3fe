package coll

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// partSubsets are arbitrary ascending subsets of an 8-member group, one per
// size the tree and recursive-doubling shapes treat differently (trivial,
// pair, odd, non-power-of-two with a fold, full power of two).
var partSubsets = [][]int{
	{4},
	{1, 6},
	{0, 3, 7},
	{0, 2, 3, 5, 7},
	{0, 1, 2, 3, 4, 5, 6, 7},
}

// exchange runs the one tree reduce, tree broadcast and recursive-doubling
// implementation over p and checks every participant ends with want.
func exchange(th *kernel.Thread, c *Comm, p part, want int64) error {
	mine := Int64Bytes([]int64{int64(c.rank+1) * 1000})
	return c.op(th, "part", func(seq uint32) error {
		red, err := c.treeReduce(th, seq, p, SumInt64, rReduce, mine)
		if err != nil {
			return err
		}
		if (red != nil) != (p.v() == 0) {
			return fmt.Errorf("rank %d (v=%d): reduce surfaced=%v, want only at the root", c.rank, p.v(), red != nil)
		}
		out, err := c.treeBcast(th, seq, p, rBcast, red)
		if err != nil {
			return err
		}
		if got := BytesInt64(out)[0]; got != want {
			return fmt.Errorf("rank %d root %d: reduce+bcast = %d, want %d", c.rank, p.root, got, want)
		}
		rd, err := c.rdAllreduce(th, seq, p, SumInt64, rdFlat, mine)
		if err != nil {
			return err
		}
		if got := BytesInt64(rd)[0]; got != want {
			return fmt.Errorf("rank %d root %d: recursive doubling = %d, want %d", c.rank, p.root, got, want)
		}
		return c.dissemBarrier(th, seq, p, rDissem)
	})
}

// runMembers drives body on every member of g to completion.
func runMembers(t *testing.T, sys *core.System, g *Group, body func(th *kernel.Thread, c *Comm) error) {
	t.Helper()
	errs := make([]error, g.n)
	done := make([]bool, g.n)
	for r := 0; r < g.n; r++ {
		r := r
		sys.CAB(g.members[r]).Kernel.Spawn(fmt.Sprintf("member-%d", r), func(th *kernel.Thread) {
			errs[r] = body(th, g.comms[r])
			done[r] = true
		})
	}
	sys.RunUntil(5 * sim.Second)
	for r := range errs {
		if errs[r] != nil {
			t.Errorf("rank %d: %v", r, errs[r])
		} else if !done[r] {
			t.Errorf("rank %d never finished (deadlock)", r)
		}
	}
}

// The flat families run the tree/RD functions over the whole group; every
// member can be the root.
func TestPartEveryRootOfFullGroup(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		sys := core.New(core.SingleHub(8))
		cabs := make([]int, n)
		var want int64
		for i := range cabs {
			cabs[i] = i
			want += int64(i+1) * 1000
		}
		g := NewGroup(sys, 1, cabs)
		runMembers(t, sys, g, func(th *kernel.Thread, c *Comm) error {
			for root := 0; root < n; root++ {
				if err := exchange(th, c, c.whole(root), want); err != nil {
					return fmt.Errorf("n=%d: %w", n, err)
				}
			}
			return nil
		})
	}
}

// The hierarchical families run the same functions over a subset (one
// HUB's members, the HUB leaders); non-participants stay out entirely.
func TestPartArbitrarySortedSubsets(t *testing.T) {
	sys := core.New(core.SingleHub(8))
	g := NewGroup(sys, 1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	runMembers(t, sys, g, func(th *kernel.Thread, c *Comm) error {
		for _, ranks := range partSubsets {
			me, want := -1, int64(0)
			for i, r := range ranks {
				want += int64(r+1) * 1000
				if r == c.rank {
					me = i
				}
			}
			for root := range ranks {
				if me < 0 {
					// Keep the collective sequence number in step.
					if err := c.op(th, "part", func(uint32) error { return nil }); err != nil {
						return err
					}
					continue
				}
				if err := exchange(th, c, part{ranks: ranks, me: me, root: root}, want); err != nil {
					return fmt.Errorf("subset %v: %w", ranks, err)
				}
			}
		}
		return nil
	})
}

// A part is three words over a precomputed list: building one and walking
// its tree allocates nothing, whole group or subset.
func TestPartAllocatesNothing(t *testing.T) {
	sys := core.New(core.SingleHub(8))
	c := NewGroup(sys, 1, []int{0, 1, 2, 3, 4, 5, 6, 7}).comms[5]
	sub := partSubsets[3]
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		for root := 0; root < 8; root++ {
			p := c.whole(root)
			sink += p.n() + p.v() + p.subtree() + p.at(p.v())
		}
		for root := range sub {
			p := part{ranks: sub, me: 3, root: root}
			sink += p.n() + p.v() + p.subtree() + p.at(p.v())
		}
	})
	if allocs != 0 {
		t.Fatalf("building and walking parts allocated %.0f objects per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("unreachable: keeps the loop live")
	}
}
