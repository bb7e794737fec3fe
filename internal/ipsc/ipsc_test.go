package ipsc_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ipsc"
	"repro/internal/sim"
)

func TestCsendCrecv(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	var got []byte
	ipsc.Run(sys, 2, func(c *ipsc.Ctx) {
		if c.Mynode() == 0 {
			c.Csend(5, []byte("ring"), 1)
		} else {
			got = c.Crecv(5)
		}
	})
	if string(got) != "ring" {
		t.Fatalf("got %q", got)
	}
}

func TestMynodeNumnodes(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	seen := map[int]bool{}
	ipsc.Run(sys, 4, func(c *ipsc.Ctx) {
		if c.Numnodes() != 4 {
			t.Errorf("Numnodes = %d", c.Numnodes())
		}
		seen[c.Mynode()] = true
	})
	if len(seen) != 4 {
		t.Fatalf("nodes seen: %v", seen)
	}
}

func TestRingPass(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	const rounds = 3
	var final []byte
	ipsc.Run(sys, 4, func(c *ipsc.Ctx) {
		me, n := c.Mynode(), c.Numnodes()
		next := (me + 1) % n
		if me == 0 {
			token := []byte{0}
			for r := 0; r < rounds; r++ {
				c.Csend(1, token, next)
				token = c.Crecv(1)
			}
			final = token
		} else {
			for r := 0; r < rounds; r++ {
				token := c.Crecv(1)
				token = append(token, byte(me))
				c.Csend(1, token, next)
			}
		}
	})
	want := []byte{0, 1, 2, 3, 1, 2, 3, 1, 2, 3}
	if !bytes.Equal(final, want) {
		t.Fatalf("token %v, want %v", final, want)
	}
}

func TestGisumPowerOfTwo(t *testing.T) {
	sys := core.New(core.SingleHub(8))
	results := make([]int64, 8)
	ipsc.Run(sys, 8, func(c *ipsc.Ctx) {
		results[c.Mynode()] = c.Gisum(int64(c.Mynode() + 1))
	})
	for i, r := range results {
		if r != 36 { // 1+2+...+8
			t.Fatalf("node %d: Gisum = %d, want 36", i, r)
		}
	}
}

func TestGisumNonPowerOfTwo(t *testing.T) {
	sys := core.New(core.SingleHub(6))
	results := make([]int64, 6)
	ipsc.Run(sys, 6, func(c *ipsc.Ctx) {
		results[c.Mynode()] = c.Gisum(10)
	})
	for i, r := range results {
		if r != 60 {
			t.Fatalf("node %d: Gisum = %d, want 60", i, r)
		}
	}
}

func TestGihighAndGdsum(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	var hi int64
	var sum float64
	ipsc.Run(sys, 4, func(c *ipsc.Ctx) {
		h := c.Gihigh(int64(c.Mynode() * 7))
		s := c.Gdsum(0.5)
		if c.Mynode() == 0 {
			hi, sum = h, s
		}
	})
	if hi != 21 {
		t.Fatalf("Gihigh = %d, want 21", hi)
	}
	if sum != 2.0 {
		t.Fatalf("Gdsum = %v, want 2.0", sum)
	}
}

func TestGsyncBarrier(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	var afterMin, beforeMax sim.Time
	ipsc.Run(sys, 4, func(c *ipsc.Ctx) {
		// Stagger arrival at the barrier.
		c.Compute(sim.Time(c.Mynode()) * sim.Millisecond)
		before := c.Now()
		if before > beforeMax {
			beforeMax = before
		}
		c.Gsync()
		after := c.Now()
		if afterMin == 0 || after < afterMin {
			afterMin = after
		}
	})
	// No process may leave the barrier before the last one arrived.
	if afterMin < beforeMax {
		t.Fatalf("barrier leaked: first exit %v < last arrival %v", afterMin, beforeMax)
	}
}

func TestConsecutiveCollectivesDoNotCross(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	bad := false
	ipsc.Run(sys, 4, func(c *ipsc.Ctx) {
		for i := 0; i < 10; i++ {
			if got := c.Gisum(int64(i)); got != int64(4*i) {
				bad = true
			}
		}
	})
	if bad {
		t.Fatal("successive reductions interfered")
	}
}

func TestIsendMsgwait(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	var got []byte
	ipsc.Run(sys, 2, func(c *ipsc.Ctx) {
		if c.Mynode() == 0 {
			h := c.Isend(9, []byte("async"), 1)
			c.Msgwait(h)
		} else {
			got = c.Crecv(9)
		}
	})
	if string(got) != "async" {
		t.Fatalf("got %q", got)
	}
}

func TestMoreProcsThanCABs(t *testing.T) {
	// 8 processes on 4 CABs: round-robin placement, two tasks per CAB.
	sys := core.New(core.SingleHub(4))
	results := make([]int64, 8)
	ipsc.Run(sys, 8, func(c *ipsc.Ctx) {
		results[c.Mynode()] = c.Gisum(1)
	})
	for i, r := range results {
		if r != 8 {
			t.Fatalf("node %d: %d, want 8", i, r)
		}
	}
}

// Every collective must work at arbitrary process counts — the old
// implementation special-cased powers of two; the collective subsystem's
// power-of-two fold and tree algorithms lift that restriction.
func TestCollectivesArbitraryProcessCounts(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			sys := core.New(core.SingleHub(8))
			sums := make([]int64, n)
			highs := make([]int64, n)
			dsums := make([]float64, n)
			ipsc.Run(sys, n, func(c *ipsc.Ctx) {
				c.Gsync()
				sums[c.Mynode()] = c.Gisum(int64(c.Mynode() + 1))
				highs[c.Mynode()] = c.Gihigh(int64(c.Mynode() * 3))
				dsums[c.Mynode()] = c.Gdsum(0.25)
				c.Gsync()
			})
			wantSum := int64(n*(n+1)) / 2
			for i := 0; i < n; i++ {
				if sums[i] != wantSum {
					t.Errorf("node %d: Gisum = %d, want %d", i, sums[i], wantSum)
				}
				if highs[i] != int64((n-1)*3) {
					t.Errorf("node %d: Gihigh = %d, want %d", i, highs[i], (n-1)*3)
				}
				if dsums[i] != 0.25*float64(n) {
					t.Errorf("node %d: Gdsum = %g, want %g", i, dsums[i], 0.25*float64(n))
				}
			}
		})
	}
}

// TestAllgather checks the node-number indexing of the gcol-style
// operation (the collective subsystem's ranks are CAB-ordered, so the
// library must translate back to hypercube node numbers).
func TestAllgather(t *testing.T) {
	const n = 5
	sys := core.New(core.SingleHub(3)) // shared CABs: ranks != nodes
	ipsc.Run(sys, n, func(c *ipsc.Ctx) {
		all := c.Allgather([]byte(fmt.Sprintf("node-%d", c.Mynode())))
		if len(all) != n {
			t.Errorf("node %d: got %d entries", c.Mynode(), len(all))
			return
		}
		for k := 0; k < n; k++ {
			if want := fmt.Sprintf("node-%d", k); string(all[k]) != want {
				t.Errorf("node %d: all[%d] = %q, want %q", c.Mynode(), k, all[k], want)
			}
		}
	})
}

// TestCrecvAny receives whatever arrives first: node 0 collects one typed
// message from each other node, in any order, with its type and body.
func TestCrecvAny(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	got := map[uint32]string{}
	ipsc.Run(sys, 4, func(c *ipsc.Ctx) {
		if me := c.Mynode(); me != 0 {
			c.Csend(uint32(10+me), []byte(fmt.Sprintf("from %d", me)), 0)
			return
		}
		for range c.Numnodes() - 1 {
			typ, data := c.CrecvAny()
			got[typ] = string(data)
		}
	})
	want := map[uint32]string{11: "from 1", 12: "from 2", 13: "from 3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("CrecvAny got %v, want %v", got, want)
	}
}
