package topo

import (
	"testing"
	"testing/quick"

	"repro/internal/fiber"
	"repro/internal/hub"
	"repro/internal/sim"
)

func TestSingleHubRoute(t *testing.T) {
	eng := sim.NewEngine()
	n := Single(4).Build(eng, nil)
	hops, err := n.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 {
		t.Fatalf("hops = %v, want 1 hop on a single-HUB system", hops)
	}
	if hops[0].HubID != n.Hub(0).ID() || int(hops[0].Port) != n.PortOf(3) || !hops[0].Terminal {
		t.Fatalf("hop = %+v", hops[0])
	}
}

func TestRouteToSelfFails(t *testing.T) {
	eng := sim.NewEngine()
	n := Single(2).Build(eng, nil)
	if _, err := n.Route(1, 1); err == nil {
		t.Fatal("route to self should fail")
	}
}

func TestLineRouteHopCounts(t *testing.T) {
	eng := sim.NewEngine()
	n := Chain(5, 1).Build(eng, nil)
	// CAB i is on hub i. Route 0 -> 4 crosses all 5 hubs.
	hops, err := n.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 5 {
		t.Fatalf("got %d hops, want 5", len(hops))
	}
	for i, h := range hops {
		wantHub := n.Hub(i).ID()
		if h.HubID != wantHub {
			t.Fatalf("hop %d on hub %d, want %d", i, h.HubID, wantHub)
		}
		if h.Terminal != (i == 4) {
			t.Fatalf("hop %d terminal=%v", i, h.Terminal)
		}
	}
}

func TestMesh2DRouteIsShortest(t *testing.T) {
	eng := sim.NewEngine()
	n := Mesh(3, 3, 1).Build(eng, nil)
	// CAB k is on hub k (row-major). Corner to corner: manhattan distance
	// 4, so 5 hubs on the path -> 5 hops.
	hops, err := n.Route(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 5 {
		t.Fatalf("got %d hops, want 5 (shortest path in 3x3 mesh)", len(hops))
	}
	// Adjacent hubs: 2 hops.
	hops, err = n.Route(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 {
		t.Fatalf("adjacent route: %d hops, want 2", len(hops))
	}
}

func TestNoPathError(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng, nil, DefaultOptions())
	h1 := n.AddHub()
	h2 := n.AddHub() // never connected
	n.AttachCAB(h1, "a")
	n.AttachCAB(h2, "b")
	if _, err := n.Route(0, 1); err == nil {
		t.Fatal("route across disconnected hubs should fail")
	}
}

func TestMulticastTreeSharedPrefix(t *testing.T) {
	eng := sim.NewEngine()
	// Line of 3 hubs; src on hub0, dsts on hub1 and hub2: the hub0->hub1
	// edge must be opened exactly once.
	n := Chain(3, 2).Build(eng, nil)
	// CABs: hub0: 0,1; hub1: 2,3; hub2: 4,5.
	hops, err := n.MulticastTree(0, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Expect: open hub0->hub1 edge, then on hub1: terminal to CAB2 and
	// edge to hub2, then terminal to CAB4. 4 opens total.
	if len(hops) != 4 {
		t.Fatalf("hops = %v, want 4 opens", hops)
	}
	terminals := 0
	for _, h := range hops {
		if h.Terminal {
			terminals++
		}
	}
	if terminals != 2 {
		t.Fatalf("%d terminal opens, want 2", terminals)
	}
	// Every non-terminal open must precede opens of hubs deeper in the
	// tree: check the first hop is on hub0.
	if hops[0].HubID != n.Hub(0).ID() || hops[0].Terminal {
		t.Fatalf("first open %+v should be the hub0 edge", hops[0])
	}
}

func TestMulticastNormalization(t *testing.T) {
	eng := sim.NewEngine()
	n := Single(3).Build(eng, nil)
	// A destination equal to the source is skipped, not an error: the
	// sender already holds the data.
	hops, err := n.MulticastTree(0, []int{0, 1})
	if err != nil {
		t.Fatalf("multicast with self in set: %v", err)
	}
	if len(hops) != 1 || !hops[0].Terminal {
		t.Fatalf("hops = %+v, want one terminal open to CAB 1", hops)
	}
	// Only a set that is empty after normalization fails.
	if _, err := n.MulticastTree(0, nil); err == nil {
		t.Fatal("empty multicast should fail")
	}
	if _, err := n.MulticastTree(0, []int{0, 0}); err == nil {
		t.Fatal("self-only multicast should fail")
	}
}

func TestMulticastDuplicateDestinations(t *testing.T) {
	eng := sim.NewEngine()
	n := Single(4).Build(eng, nil)
	a, err := n.MulticastTree(0, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.MulticastTree(0, []int{3, 1, 2, 1, 3, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != len(a) {
		t.Fatalf("duplicated set opened %d hops, deduped set %d", len(b), len(a))
	}
	seen := map[byte]int{}
	for _, h := range b {
		if !h.Terminal {
			t.Fatalf("unexpected non-terminal open %+v on a single hub", h)
		}
		seen[h.Port]++
	}
	for p, c := range seen {
		if c != 1 {
			t.Fatalf("port %d opened %d times, want exactly once", p, c)
		}
	}
}

func TestMulticastOverlappingSetsMesh(t *testing.T) {
	eng := sim.NewEngine()
	// 2x2 mesh, 2 CABs per hub: hub h carries CABs 2h and 2h+1.
	n := Mesh(2, 2, 2).Build(eng, nil)
	// Overlapping destination sets sharing tree edges, with duplicates and
	// the source mixed in: each normalizes to the same opens as its clean
	// equivalent.
	for _, tc := range [][2][]int{
		{{2, 4, 6}, {6, 2, 4, 2, 0, 6}},
		{{1, 3}, {3, 1, 1, 0, 3}},
	} {
		clean, err := n.MulticastTree(0, tc[0])
		if err != nil {
			t.Fatal(err)
		}
		messy, err := n.MulticastTree(0, tc[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(messy) != len(clean) {
			t.Fatalf("dsts %v: %d opens, clean set %v has %d",
				tc[1], len(messy), tc[0], len(clean))
		}
		if ca, cb := countTerm(clean), countTerm(messy); ca != cb || ca != len(tc[0]) {
			t.Fatalf("dsts %v: %d terminals, want %d", tc[1], cb, len(tc[0]))
		}
	}
}

func TestMulticastOverlappingSetsLine(t *testing.T) {
	eng := sim.NewEngine()
	n := Chain(3, 2).Build(eng, nil)
	// CABs: hub0: 0,1; hub1: 2,3; hub2: 4,5. The far set rides the same
	// inter-hub edges as the near set; a self+duplicate-laden variant must
	// produce the identical tree.
	clean, err := n.MulticastTree(0, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	messy, err := n.MulticastTree(0, []int{4, 0, 2, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(messy) != len(clean) || countTerm(messy) != 2 {
		t.Fatalf("messy tree %+v, want same shape as clean %+v", messy, clean)
	}
}

func countTerm(hops []Hop) int {
	n := 0
	for _, h := range hops {
		if h.Terminal {
			n++
		}
	}
	return n
}

// TestWiringEndToEnd drives raw HUB commands through a topo-built network:
// CAB0 opens a route to CAB1 across two hubs and ships a packet, verifying
// links, ready-bit wiring and routing agree.
func TestWiringEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	n := Chain(2, 1).Build(eng, nil)
	src, dst := n.Board(0), n.Board(1)

	var got []*fiber.Item
	dst.SetItemHandler(func(it *fiber.Item) {
		if it.Kind == fiber.KindPacket {
			got = append(got, it)
			dst.DrainedPacket()
		}
	})
	var replies int
	src.SetItemHandler(func(it *fiber.Item) {
		if it.Kind == fiber.KindReply && it.ReplyOK {
			replies++
		}
	})

	hops, err := n.Route(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() {
		var items []*fiber.Item
		for _, hp := range hops {
			op := hub.OpOpenRetry
			if hp.Terminal {
				op = hub.OpOpenRetryReply
			}
			items = append(items, &fiber.Item{
				Kind:    fiber.KindCommand,
				Cmd:     fiber.Command{Op: byte(op), Hub: hp.HubID, Param: hp.Port},
				ReplyTo: src,
			})
		}
		items = append(items, &fiber.Item{Kind: fiber.KindPacket, Payload: make([]byte, 128)})
		items = append(items, &fiber.Item{
			Kind: fiber.KindCommand,
			Cmd:  fiber.Command{Op: byte(hub.OpCloseAll), Hub: 0xFF},
		})
		src.Send(items...)
	})
	eng.Run()

	if len(got) != 1 || len(got[0].Payload) != 128 {
		t.Fatalf("dst got %v", got)
	}
	if replies != 1 {
		t.Fatalf("src got %d replies, want 1", replies)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, h := range n.Hubs() {
		if len(h.Connections()) != 0 {
			t.Fatalf("%s still has connections", h.Name())
		}
	}
}

func TestPortExhaustionPanics(t *testing.T) {
	eng := sim.NewEngine()
	opts := DefaultOptions()
	opts.HubPorts = 2
	n := NewNetwork(eng, nil, opts)
	h := n.AddHub()
	n.AttachCAB(h, "")
	n.AttachCAB(h, "")
	defer func() {
		if recover() == nil {
			t.Fatal("third CAB on a 2-port hub should panic")
		}
	}()
	n.AttachCAB(h, "")
}

func TestBoardAccessors(t *testing.T) {
	eng := sim.NewEngine()
	n := Single(3).Build(eng, nil)
	if len(n.Boards()) != 3 {
		t.Fatalf("boards = %d", len(n.Boards()))
	}
	if n.Board(2).ID() != 2 {
		t.Fatalf("board 2 id = %d", n.Board(2).ID())
	}
	if n.HubOf(2) != 0 || n.PortOf(2) != 2 {
		t.Fatalf("attach of CAB2 = hub %d port %d", n.HubOf(2), n.PortOf(2))
	}
	if len(n.Hubs()) != 1 {
		t.Fatalf("hubs = %d", len(n.Hubs()))
	}
}

// Property: in an RxC mesh with one CAB per hub, the route length between
// any two CABs equals the Manhattan distance between their hubs plus one
// (the terminal hop), and every hop's HubID names a hub on the path.
func TestMeshRouteLengthProperty(t *testing.T) {
	f := func(r8, c8, a8, b8 uint8) bool {
		rows := int(r8)%3 + 2 // 2..4
		cols := int(c8)%3 + 2
		n := rows * cols
		a := int(a8) % n
		b := int(b8) % n
		if a == b {
			return true
		}
		eng := sim.NewEngine()
		net := Mesh(rows, cols, 1).Build(eng, nil)
		hops, err := net.Route(a, b)
		if err != nil {
			return false
		}
		ra, ca := a/cols, a%cols
		rb, cb := b/cols, b%cols
		manhattan := abs(ra-rb) + abs(ca-cb)
		return len(hops) == manhattan+1 && hops[len(hops)-1].Terminal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Property: a multicast tree reaches every destination with exactly one
// terminal open per destination and opens each HUB-HUB edge at most once.
func TestMulticastTreeProperty(t *testing.T) {
	f := func(sel uint16) bool {
		eng := sim.NewEngine()
		net := Mesh(2, 3, 2).Build(eng, nil) // 12 CABs
		n := 12
		var dsts []int
		for i := 1; i < n; i++ {
			if sel&(1<<uint(i)) != 0 {
				dsts = append(dsts, i)
			}
		}
		if len(dsts) == 0 {
			return true
		}
		hops, err := net.MulticastTree(0, dsts)
		if err != nil {
			return false
		}
		terminals := 0
		seen := map[[2]byte]bool{}
		for _, h := range hops {
			key := [2]byte{h.HubID, h.Port}
			if seen[key] {
				return false // duplicate open
			}
			seen[key] = true
			if h.Terminal {
				terminals++
			}
		}
		return terminals == len(dsts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkDownReroutes(t *testing.T) {
	eng := sim.NewEngine()
	n := Mesh(2, 2, 1).Build(eng, nil)
	// Hubs: 0 1 / 2 3 (row-major). Route 0->3 is 3 hops via 1 or 2.
	before, err := n.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 3 {
		t.Fatalf("baseline route %d hops", len(before))
	}
	firstVia := before[1].HubID // the intermediate hub
	// Kill the first edge of that path.
	var mid int
	for i, h := range n.Hubs() {
		if h.ID() == firstVia {
			mid = i
		}
	}
	n.SetLinkState(0, mid, false)
	after, err := n.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 3 {
		t.Fatalf("reroute %d hops, want 3 (the other corner path)", len(after))
	}
	if after[1].HubID == firstVia {
		t.Fatalf("route still uses the dead link via hub %d", firstVia)
	}
	// Restoring the link restores the original shortest path family.
	n.SetLinkState(0, mid, true)
	if _, err := n.Route(0, 3); err != nil {
		t.Fatal(err)
	}
}

func TestAllLinksDownPartitions(t *testing.T) {
	eng := sim.NewEngine()
	n := Chain(2, 1).Build(eng, nil)
	n.SetLinkState(0, 1, false)
	if _, err := n.Route(0, 1); err == nil {
		t.Fatal("route across a dead link should fail")
	}
}
