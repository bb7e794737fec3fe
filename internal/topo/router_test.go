package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fiber"
	"repro/internal/sim"
)

// countEdges returns the number of distinct inter-HUB links.
func countEdges(n *Network) int { return len(n.InterHubEdges()) }

func TestTorusWrapLinks(t *testing.T) {
	eng := sim.NewEngine()
	n := Torus(4, 4, 1).Build(eng, nil)
	// A 4x4 torus closes every row and column: 4 links per ring, 8 rings.
	if got := countEdges(n); got != 32 {
		t.Fatalf("4x4 torus has %d inter-HUB links, want 32", got)
	}
	// The corner HUB (0,0) must see wrap neighbors (3,0) and (0,3).
	if _, ok := n.portToward(0, 3); !ok {
		t.Fatal("corner HUB has no x wrap link to column 3")
	}
	if _, ok := n.portToward(0, 12); !ok {
		t.Fatal("corner HUB has no y wrap link to row 3")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A dimension of size 2 gains no wrap link (it would duplicate the
	// existing edge): X=4 wraps (4 links x 2 rows), Y=2 does not (1 link
	// per column x 4 columns).
	n2 := Torus(2, 4, 1).Build(sim.NewEngine(), nil)
	if got := countEdges(n2); got != 12 {
		t.Fatalf("2x4 torus has %d inter-HUB links, want 12", got)
	}
}

func TestTorus3DShape(t *testing.T) {
	eng := sim.NewEngine()
	n := Torus3D(3, 3, 3, 1).Build(eng, nil)
	if len(n.Hubs()) != 27 {
		t.Fatalf("hubs = %d, want 27", len(n.Hubs()))
	}
	// Every dimension is a ring of 3: 3 links per ring, 9 rings per axis.
	if got := countEdges(n); got != 81 {
		t.Fatalf("3x3x3 torus has %d inter-HUB links, want 81", got)
	}
	// Every HUB has degree 6 (two neighbors per dimension).
	for h := range n.Hubs() {
		if deg := len(n.adj[h]); deg != 6 {
			t.Fatalf("hub %d degree = %d, want 6", h, deg)
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeUpDownLinks(t *testing.T) {
	eng := sim.NewEngine()
	n := FatTree(4, 2, 2).Build(eng, nil)
	if len(n.Hubs()) != 6 {
		t.Fatalf("hubs = %d, want 4 leaves + 2 spines", len(n.Hubs()))
	}
	if got := countEdges(n); got != 8 {
		t.Fatalf("fat tree has %d inter-HUB links, want 4x2", got)
	}
	// Every leaf-spine pair is wired; no leaf-leaf or spine-spine links.
	for leaf := 0; leaf < 4; leaf++ {
		for spine := 4; spine < 6; spine++ {
			if _, ok := n.portToward(leaf, spine); !ok {
				t.Fatalf("leaf %d not wired to spine %d", leaf, spine)
			}
		}
	}
	if _, ok := n.portToward(0, 1); ok {
		t.Fatal("unexpected leaf-leaf link")
	}
	if _, ok := n.portToward(4, 5); ok {
		t.Fatal("unexpected spine-spine link")
	}
	// CABs attach only to leaves.
	if len(n.Boards()) != 8 {
		t.Fatalf("boards = %d, want 8", len(n.Boards()))
	}
	for id := range n.Boards() {
		if h := n.HubOf(id); h >= 4 {
			t.Fatalf("CAB %d attached to spine HUB %d", id, h)
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Adaptive routes are minimal: exactly the BFS hop count for every pair,
// and byte-identical across repeated computation on an idle network (the
// escape tie-break makes the choice deterministic).
func TestAdaptiveMinimalAndDeterministic(t *testing.T) {
	eng := sim.NewEngine()
	n := Torus3D(3, 3, 2, 1).Build(eng, nil)
	bfs := NewRouter(n, PolicyBFS)
	ad := NewRouter(n, PolicyAdaptive)
	for src := 0; src < len(n.Boards()); src++ {
		for dst := 0; dst < len(n.Boards()); dst++ {
			if src == dst {
				continue
			}
			hb, _ := bfs.Route(src, dst)
			h1, err := ad.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			h2, _ := ad.Route(src, dst)
			if len(h1) != len(hb) {
				t.Fatalf("route %d->%d: adaptive %d hops, BFS %d", src, dst, len(h1), len(hb))
			}
			if fmt.Sprint(h1) != fmt.Sprint(h2) {
				t.Fatalf("adaptive route %d->%d not deterministic: %v vs %v", src, dst, h1, h2)
			}
		}
	}
}

// On an idle grid the adaptive policy follows the wrap-free dimension-order
// escape path exactly.
func TestAdaptiveFollowsEscapeWhenIdle(t *testing.T) {
	eng := sim.NewEngine()
	n := Mesh(2, 2, 1).Build(eng, nil)
	ad := NewRouter(n, PolicyAdaptive)
	hops, err := ad.Route(0, 3) // hub 0 (0,0) -> hub 3 (1,1)
	if err != nil {
		t.Fatal(err)
	}
	// x-first: 0 -> 1 -> 3, so the first hop leaves HUB index 0 toward 1.
	if len(hops) != 3 {
		t.Fatalf("hops = %v, want 3", hops)
	}
	port, _ := n.portToward(0, 1)
	if int(hops[0].Port) != port {
		t.Fatalf("idle adaptive first hop uses port %d, escape (x-first) is port %d", hops[0].Port, port)
	}
}

// Congestion on the escape path diverts the adaptive policy to the other
// minimal path, while BFS keeps using the loaded one.
func TestAdaptiveDivertsAroundCongestion(t *testing.T) {
	eng := sim.NewEngine()
	n := Mesh(2, 2, 1).Build(eng, nil)
	ad := NewRouter(n, PolicyAdaptive)
	// Stuff HUB 1's input queue on the port that receives from HUB 0, so
	// the 0->1->3 escape path looks congested. Start lies in the future so
	// the port parks the packet instead of forwarding it at time zero.
	back := n.edgeBetween(1, 0)
	n.Hub(1).Port(back.portHere).Receive(&fiber.Item{
		Kind:    fiber.KindPacket,
		Payload: make([]byte, 600),
		Start:   sim.Millisecond,
	})
	hops, err := ad.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	port, _ := n.portToward(0, 2)
	if int(hops[0].Port) != port {
		t.Fatalf("adaptive first hop uses port %d, want diversion via HUB 2 (port %d)", hops[0].Port, port)
	}
	// Route length is still minimal: 2 inter-HUB hops + terminal.
	if len(hops) != 3 {
		t.Fatalf("diverted route = %v, want 3 hops", hops)
	}
}

// The adaptive policy's escape subnetwork must have an acyclic
// channel-dependency graph on every supported shape.
func TestEscapeAcyclicAllShapes(t *testing.T) {
	shapes := []Spec{
		Mesh(3, 3, 1),
		Torus(4, 4, 1),
		Torus3D(3, 3, 3, 1),
		FatTree(4, 2, 1),
	}
	for _, s := range shapes {
		n := s.Build(sim.NewEngine(), nil)
		if err := n.CheckEscapeAcyclic(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

// Negative control: BFS shortest paths on a torus ring produce a cyclic
// channel-dependency graph — exactly the deadlock the escape subnetwork
// exists to avoid.
func TestBFSOnTorusRingIsCyclic(t *testing.T) {
	n := Torus(1, 5, 1).Build(sim.NewEngine(), nil)
	err := n.checkRoutesAcyclic(n.refHubPath)
	if err == nil {
		t.Fatal("BFS routes around a 5-ring should form a dependency cycle")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("error %q does not mention the cycle", err)
	}
}

func TestCheckEscapeAcyclicNeedsShape(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng, nil, DefaultOptions())
	a, b := n.AddHub(), n.AddHub()
	n.ConnectHubs(a, b)
	if err := n.CheckEscapeAcyclic(); err == nil {
		t.Fatal("hand-built network has no escape subnetwork; want error")
	}
}

// The one-byte HUB ID space: building past 255 HUBs panics with the
// "nectar: ..." contract, both declaratively and imperatively.
func TestHubLimitPanics(t *testing.T) {
	mustPanicContains := func(want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("expected panic containing %q", want)
			}
			msg, ok := r.(string)
			if !ok {
				t.Fatalf("panic value is %T, want string", r)
			}
			if !strings.HasPrefix(msg, "nectar: ") || !strings.Contains(msg, want) {
				t.Fatalf("panic %q: want \"nectar: \" prefix and %q", msg, want)
			}
		}()
		f()
	}
	mustPanicContains("at most 255 HUBs", func() {
		Torus3D(8, 8, 4, 1).Build(sim.NewEngine(), nil) // 256 HUBs
	})
	mustPanicContains("at most 255 HUBs", func() {
		n := NewNetwork(sim.NewEngine(), nil, DefaultOptions())
		for i := 0; i < MaxHubs+1; i++ {
			n.AddHub()
		}
	})
	// 255 HUBs exactly is fine.
	n := NewNetwork(sim.NewEngine(), nil, DefaultOptions())
	for i := 0; i < MaxHubs; i++ {
		n.AddHub()
	}
	if got := n.Hub(MaxHubs - 1).ID(); got != 255 {
		t.Fatalf("last HUB ID = %d, want 255", got)
	}
}

func TestNewRouterUnknownPolicyPanics(t *testing.T) {
	n := Single(2).Build(sim.NewEngine(), nil)
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if r == nil || !strings.Contains(msg, "unknown routing policy") {
			t.Fatalf("panic = %v, want unknown-policy message", r)
		}
	}()
	NewRouter(n, Policy("teleport"))
}

// Options thread through Spec.Build; without any, Build uses the defaults.
func TestBuildOptions(t *testing.T) {
	if got := Torus(3, 3, 1).Build(sim.NewEngine(), nil).opts.HubPorts; got != DefaultOptions().HubPorts {
		t.Fatalf("default HubPorts = %d, want %d", got, DefaultOptions().HubPorts)
	}
	o := DefaultOptions()
	o.HubPorts = 24
	n := Torus(3, 3, 1).Build(sim.NewEngine(), nil, WithOptions(o))
	if got := n.opts.HubPorts; got != 24 {
		t.Fatalf("HubPorts = %d, want 24", got)
	}
	// A later WithOptions replaces an earlier one wholesale.
	o.HubPorts = 20
	o2 := DefaultOptions()
	o2.HubPorts = 18
	n2 := Single(2).Build(sim.NewEngine(), nil, WithOptions(o), WithOptions(o2))
	if n2.opts.HubPorts != 18 {
		t.Fatalf("HubPorts = %d, want 18 (later option wins)", n2.opts.HubPorts)
	}
	if n2.Shape() != Single(2) {
		t.Fatalf("Shape = %v, want the spec it was built from", n2.Shape())
	}
}

// The adaptive router's cached route fields must equal a fresh computation
// for every (from, to) HUB pair on the 4x4x8 torus, and stay equal across
// every change of link state: FailLink and RestoreLink, which notify
// observers, and the silent SetLinkState, which does not.
func TestRouteFieldCacheMatchesFresh(t *testing.T) {
	n := Torus3D(4, 4, 8, 1).Build(sim.NewEngine(), nil)
	hubs := len(n.Hubs())
	check := func(stage string) {
		t.Helper()
		for to := 0; to < hubs; to++ {
			f := n.fieldTo(to)
			fresh := n.bfsDistancesTo(to)
			for from := 0; from < hubs; from++ {
				if f.dist[from] != fresh[from] {
					t.Fatalf("%s: dist HUB%d->HUB%d cached %d, fresh %d", stage, from, to, f.dist[from], fresh[from])
				}
				want := -1
				if path, ok := n.structuredPath(from, to); ok && len(path) > 1 {
					want = path[1]
				}
				if got := f.escape[from]; got != want {
					t.Fatalf("%s: escape hop HUB%d->HUB%d cached %d, fresh %d", stage, from, to, got, want)
				}
			}
		}
	}
	// Every check fills the whole cache, so each later stage finds it
	// full of fields computed before the change.
	check("built")
	edges := n.InterHubEdges()
	failed, silent := edges[0], edges[len(edges)/2]
	n.FailLink(failed[0], failed[1])
	check("after FailLink")
	n.RestoreLink(failed[0], failed[1])
	check("after RestoreLink")
	n.SetLinkState(silent[0], silent[1], false)
	check("after silent SetLinkState")
}

// RouteInto writes exactly the opens of the path-based reference
// (reference_test.go) for every ordered CAB pair, under both policies, on
// an idle network, with bytes in random input queues and random output
// registers not ready, and with random links down. It keeps what buf held
// and returns buf unchanged on error; Route returns the same opens, and
// MulticastTree the reference's tree for a random destination list from
// each source. Once the route fields are warm, a buffer with room costs no
// allocation.
func TestRouteIntoMatchesReference(t *testing.T) {
	shapes := []Spec{Torus3D(2, 2, 2, 8), Mesh(4, 4, 2), Chain(5, 2), FatTree(4, 2, 2)}
	policies := []Policy{PolicyBFS, PolicyAdaptive}
	loads := map[string]func(n *Network, rng *rand.Rand){
		"idle": func(*Network, *rand.Rand) {},
		"queues": func(n *Network, rng *rand.Rand) {
			for _, h := range n.Hubs() {
				for p := 0; p < n.opts.HubPorts; p++ {
					switch rng.Intn(4) {
					case 0:
						// Start lies in the future, so the packet stays queued.
						h.Port(p).Receive(&fiber.Item{
							Kind:    fiber.KindPacket,
							Payload: make([]byte, 100*(1+rng.Intn(8))),
							Start:   sim.Millisecond,
						})
					case 1:
						h.ResetOutput(p, false)
					}
				}
			}
		},
		"links down": func(n *Network, rng *rand.Rand) {
			for _, e := range n.InterHubEdges() {
				if rng.Intn(4) == 0 {
					n.SetLinkState(e[0], e[1], false)
				}
			}
		},
	}
	mark := Hop{HubID: 0xEE, Port: 0xEE}
	for _, s := range shapes {
		for _, p := range policies {
			for name, load := range loads {
				n := s.Build(sim.NewEngine(), nil)
				rng := rand.New(rand.NewSource(int64(len(name))))
				load(n, rng)
				r := NewRouter(n, p)
				cabs := len(n.Boards())
				for src := 0; src < cabs; src++ {
					for dst := 0; dst < cabs; dst++ {
						want, wantErr := n.refRoute(p, src, dst)
						buf := append(make([]Hop, 0, 1+rng.Intn(4)), mark)
						got, err := r.RouteInto(buf, src, dst)
						where := fmt.Sprintf("%v %s %s: %d->%d", s, p, name, src, dst)
						if fmt.Sprint(err) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: error %v, reference %v", where, err, wantErr)
						}
						if err != nil {
							if len(got) != len(buf) || cap(got) != cap(buf) || &got[0] != &buf[0] {
								t.Fatalf("%s: failed RouteInto changed buf", where)
							}
							continue
						}
						if got[0] != mark || !slices.Equal(got[1:], want) {
							t.Fatalf("%s: RouteInto %v, reference %v after %v", where, got[1:], want, mark)
						}
						if route, _ := r.Route(src, dst); !slices.Equal(route, want) {
							t.Fatalf("%s: Route %v, reference %v", where, route, want)
						}
					}
					dsts := make([]int, 1+rng.Intn(cabs))
					for i := range dsts {
						dsts[i] = rng.Intn(cabs)
					}
					tree, err := r.MulticastTree(src, dsts)
					want, wantErr := n.refMulticastTree(src, dsts)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(tree, want) {
						t.Fatalf("%v %s %s: tree from %d to %v is %v (%v), reference %v (%v)",
							s, p, name, src, dsts, tree, err, want, wantErr)
					}
				}
			}
		}
	}
	for _, p := range policies {
		n := Torus3D(2, 2, 2, 8).Build(sim.NewEngine(), nil)
		r := NewRouter(n, p)
		cabs := len(n.Boards())
		buf := make([]Hop, 0, 8)
		all := func() {
			for src := 0; src < cabs; src++ {
				for dst := 0; dst < cabs; dst++ {
					if src != dst {
						buf, _ = r.RouteInto(buf[:0], src, dst)
					}
				}
			}
		}
		all()
		if allocs := testing.AllocsPerRun(5, all); allocs != 0 {
			t.Errorf("%s: %v allocations routing every pair into a buffer with room, want 0", p, allocs)
		}
	}
}
