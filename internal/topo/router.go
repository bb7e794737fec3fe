package topo

import (
	"fmt"
	"slices"

	"repro/internal/hub"
)

// Policy names a route-computation strategy.
type Policy string

// Routing policies.
const (
	// PolicyBFS is the deterministic default: fewest-hop paths by
	// breadth-first search over the up links, independent of load.
	PolicyBFS Policy = "bfs"
	// PolicyAdaptive is the deadlock-free minimal-adaptive policy: at each
	// HUB it considers every distance-decreasing neighbor and picks the one
	// whose downstream input queue is least loaded, breaking ties toward
	// the wrap-free dimension-order escape path (whose channel-dependency
	// graph is acyclic — see CheckEscapeAcyclic).
	PolicyAdaptive Policy = "adaptive"
)

// Router computes unicast routes and multicast trees over a Network. The
// datalink holds one and caches its results; FlushRoutes and the
// fault-recovery OnChange flush work identically under every policy.
type Router interface {
	// Route computes the hop list from CAB src to CAB dst in a slice of
	// its own.
	Route(src, dst int) ([]Hop, error)
	// RouteInto appends the hop list from CAB src to CAB dst to buf,
	// allocating only when buf has no room; on error it returns buf
	// unchanged.
	RouteInto(buf []Hop, src, dst int) ([]Hop, error)
	// MulticastTree computes the DFS-ordered open list reaching dsts.
	MulticastTree(src int, dsts []int) ([]Hop, error)
}

// NewRouter returns the router implementing policy p over network n. The
// empty policy selects PolicyBFS, which the Network itself implements; an
// unknown policy panics.
func NewRouter(n *Network, p Policy) Router {
	switch p {
	case "", PolicyBFS:
		return n
	case PolicyAdaptive:
		return adaptiveRouter{n}
	default:
		panic(fmt.Sprintf("nectar: unknown routing policy %q: use %q or %q",
			p, PolicyBFS, PolicyAdaptive))
	}
}

// adaptiveRouter is the deadlock-free minimal-adaptive policy. It computes
// a BFS distance field from the destination HUB over the up links, then
// walks from the source HUB always stepping to a neighbor one unit closer
// (so progress is guaranteed and routes are minimal), choosing among the
// candidates by congestion: the byte depth of the downstream HUB's input
// queue on the receiving port, plus a full-queue penalty when this HUB's
// output register toward it is not ready. Ties break toward the wrap-free
// dimension-order escape hop, then the lowest HUB index, so an idle network
// routes exactly along the acyclic escape subnetwork (CheckEscapeAcyclic)
// and a blocked packet always has the escape path available — the Duato
// condition for deadlock freedom. Multicast trees are the Network's.
type adaptiveRouter struct{ *Network }

func (r adaptiveRouter) Route(src, dst int) ([]Hop, error) { return r.RouteInto(nil, src, dst) }

// RouteInto writes each open as the walk takes its step: the field's
// distance sizes the route before the walk starts, so no HUB path is kept.
func (r adaptiveRouter) RouteInto(buf []Hop, src, dst int) ([]Hop, error) {
	if src == dst {
		return buf, routeError(src, dst)
	}
	n := r.Network
	from, to := n.attachHub[src], n.attachHub[dst]
	hops := buf
	if from != to {
		f := n.fieldTo(to)
		if f.dist[from] < 0 {
			return buf, routeError(src, dst)
		}
		// The walk is minimal: dist[from] opens, then the terminal one.
		hops = slices.Grow(hops, f.dist[from]+1)
		for cur := from; cur != to; {
			next, ok := n.adaptiveStep(cur, f)
			if !ok {
				return buf, routeError(src, dst)
			}
			hops = append(hops, n.hopToward(cur, next))
			cur = next
		}
	}
	return append(hops, n.terminalHop(dst)), nil
}

// routeField is the load-independent part of adaptive routing toward one
// destination HUB: every HUB's hop distance to it over the up links, and
// every HUB's escape hop toward it. It depends only on the wiring, the
// link states and the shape metadata, so one field serves every CAB pair
// whose destination attaches to that HUB; Network drops all fields
// whenever one of those inputs changes (invalidateRoutes).
type routeField struct {
	dist   []int // hop distance to the destination, -1 where unreachable
	escape []int // first hop of the wrap-free structured path, -1 if none
}

// fieldTo returns the route field toward HUB `to`, computing it on first
// use since the last invalidation.
func (n *Network) fieldTo(to int) *routeField {
	if n.fields == nil {
		n.fields = make([]*routeField, len(n.hubs))
	}
	if f := n.fields[to]; f != nil {
		return f
	}
	f := &routeField{dist: n.bfsDistancesTo(to), escape: make([]int, len(n.hubs))}
	for cur := range f.escape {
		f.escape[cur] = n.structuredHop(cur, to)
	}
	n.fields[to] = f
	return f
}

// invalidateRoutes drops the cached route fields. Everything that changes
// their inputs — HUBs, inter-HUB edges, link states, shape metadata —
// calls it, including the silent SetLinkState that notifies no observer.
func (n *Network) invalidateRoutes() { n.fields = nil }

// bfsDistancesTo returns each HUB's hop distance to HUB `to` over the up
// links (-1 where unreachable).
func (n *Network) bfsDistancesTo(to int) []int {
	dist := make([]int, len(n.hubs))
	for i := range dist {
		dist[i] = -1
	}
	dist[to] = 0
	queue, _ := n.scratch()
	queue = append(queue, to)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, e := range n.adj[cur] {
			if e.down || dist[e.to] >= 0 {
				continue
			}
			dist[e.to] = dist[cur] + 1
			queue = append(queue, e.to)
		}
	}
	return dist
}

// adaptiveStep picks the next HUB from cur toward the field's destination:
// the least-congested distance-decreasing neighbor, ties broken toward the
// escape hop then the lowest HUB index. Congestion is read live; only the
// field is cached.
func (n *Network) adaptiveStep(cur int, f *routeField) (int, bool) {
	escape, dist := f.escape[cur], f.dist
	best, bestCost := -1, 0
	for _, e := range n.adj[cur] {
		if e.down || dist[e.to] < 0 || dist[e.to] != dist[cur]-1 {
			continue
		}
		cost := n.edgeCongestion(cur, e)
		better := best < 0 || cost < bestCost
		if !better && cost == bestCost {
			// Tie: prefer the escape hop; otherwise keep the lower index.
			better = e.to == escape || (best != escape && e.to < best)
		}
		if better {
			best, bestCost = e.to, cost
		}
	}
	return best, best >= 0
}

// edgeCongestion scores the load ahead of edge e out of HUB cur: the byte
// depth of the downstream input queue that receives from cur, plus a
// full-queue penalty when cur's output register on the edge is not ready
// (its previous packet is still wedged in the downstream queue).
func (n *Network) edgeCongestion(cur int, e edge) int {
	cost := 0
	if back := n.edgeBetween(e.to, cur); back != nil {
		cost += n.hubs[e.to].Port(back.portHere).QueueBytes()
	}
	if !n.hubs[cur].Port(e.portHere).Ready() {
		cost += hub.InputQueueBytes
	}
	return cost
}

// grid reports whether the shape records grid coordinates.
func (s Spec) grid() bool {
	switch s.Kind {
	case KindSingleHub, KindMesh, KindLine, KindTorus, KindTorus3D:
		return true
	}
	return false
}

// structuredHop returns the first hop of the shape-aware HUB path from
// HUB `from` to HUB `to`: wrap-free dimension-order on grids, up/down over
// the lowest-index live spine on fat trees. It returns -1 at `to`, on a
// network with no shape metadata, and where any link of the path is down;
// it builds no path.
func (n *Network) structuredHop(from, to int) int {
	switch {
	case n.shape.grid() && len(n.coords) == len(n.hubs):
		first := -1
		if !n.dimOrderWalk(from, to, func(cur, next int) bool {
			if first < 0 {
				first = next
			}
			return n.LinkUp(cur, next)
		}) {
			return -1
		}
		return first
	case n.shape.Kind == KindFatTree && len(n.levels) == len(n.hubs) && from != to:
		return n.spineBetween(from, to, n.LinkUp)
	}
	return -1
}

// dimOrderWalk steps from HUB `from` to HUB `to` correcting x, then y,
// then z. Each step moves one unit along the current dimension, in the
// direction of the remaining offset, so wrap links are never taken. It
// calls step for each hop in order and stops, reporting false, at the
// first one step refuses.
func (n *Network) dimOrderWalk(from, to int, step func(cur, next int) bool) bool {
	s := n.shape
	at, want := n.coords[from], n.coords[to]
	idx := func(c [3]int) int { return (c[2]*s.Y+c[1])*s.X + c[0] }
	cur := idx(at)
	for d := 0; d < 3; d++ {
		for at[d] != want[d] {
			if want[d] < at[d] {
				at[d]--
			} else {
				at[d]++
			}
			next := idx(at)
			if !step(cur, next) {
				return false
			}
			cur = next
		}
	}
	return true
}

// spineBetween returns the lowest-index spine that linked joins to both
// leaves of a fat tree, or -1 if none does.
func (n *Network) spineBetween(from, to int, linked func(a, b int) bool) int {
	for spine := range n.hubs {
		if n.levels[spine] == 1 && linked(from, spine) && linked(spine, to) {
			return spine
		}
	}
	return -1
}

// escapePath is the escape subnetwork's route between two HUBs: wrap-free
// dimension-order on grids, up/down on fat trees. Link state is ignored —
// the escape network is a static object whose channel-dependency graph
// CheckEscapeAcyclic examines.
func (n *Network) escapePath(from, to int) ([]int, bool) {
	switch {
	case n.shape.grid() && len(n.coords) == len(n.hubs):
		path := []int{from}
		n.dimOrderWalk(from, to, func(_, next int) bool {
			path = append(path, next)
			return true
		})
		return path, true
	case n.shape.Kind == KindFatTree && len(n.levels) == len(n.hubs):
		if from == to {
			return []int{from}, true
		}
		if spine := n.spineBetween(from, to, func(a, b int) bool { return n.edgeBetween(a, b) != nil }); spine >= 0 {
			return []int{from, spine, to}, true
		}
	}
	return nil, false
}

// CheckEscapeAcyclic verifies the deadlock-freedom condition of the
// adaptive policy: the channel-dependency graph of the escape subnetwork
// (wrap-free dimension-order on grids, up/down on fat trees) must be
// acyclic, so a packet refused every adaptive channel can always drain
// along escape channels without circular wait. It errors on networks with
// no shape metadata.
func (n *Network) CheckEscapeAcyclic() error {
	if !(n.shape.grid() && len(n.coords) == len(n.hubs)) &&
		!(n.shape.Kind == KindFatTree && len(n.levels) == len(n.hubs)) {
		return fmt.Errorf("topo: network has no shape metadata; escape subnetwork undefined")
	}
	return n.checkRoutesAcyclic(n.escapePath)
}

// checkRoutesAcyclic builds the channel-dependency graph of the routes
// pathFn produces between every ordered HUB pair — nodes are directed
// inter-HUB channels, an edge joins consecutive channels of some route —
// and reports any cycle. Exposed to tests: BFS shortest paths on a torus
// ring make a cyclic graph, the negative control for CheckEscapeAcyclic.
func (n *Network) checkRoutesAcyclic(pathFn func(from, to int) ([]int, bool)) error {
	type channel struct{ a, b int }
	deps := make(map[channel]map[channel]bool)
	for from := range n.hubs {
		for to := range n.hubs {
			if from == to {
				continue
			}
			path, ok := pathFn(from, to)
			if !ok {
				continue
			}
			for i := 0; i+2 < len(path); i++ {
				c1 := channel{path[i], path[i+1]}
				c2 := channel{path[i+1], path[i+2]}
				if deps[c1] == nil {
					deps[c1] = make(map[channel]bool)
				}
				deps[c1][c2] = true
			}
			for i := 0; i+1 < len(path); i++ {
				c := channel{path[i], path[i+1]}
				if deps[c] == nil {
					deps[c] = make(map[channel]bool)
				}
			}
		}
	}
	// DFS three-color cycle detection over the dependency graph.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[channel]int, len(deps))
	var visit func(c channel) *channel
	visit = func(c channel) *channel {
		color[c] = gray
		for d := range deps[c] {
			switch color[d] {
			case gray:
				return &d
			case white:
				if bad := visit(d); bad != nil {
					return bad
				}
			}
		}
		color[c] = black
		return nil
	}
	for c := range deps {
		if color[c] == white {
			if bad := visit(c); bad != nil {
				return fmt.Errorf("topo: channel-dependency cycle through HUB%d->HUB%d", bad.a, bad.b)
			}
		}
	}
	return nil
}
