package topo

import (
	"fmt"

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
	// Route computes the hop list from CAB src to CAB dst.
	Route(src, dst int) ([]Hop, error)
	// MulticastTree computes the DFS-ordered open list reaching dsts.
	MulticastTree(src int, dsts []int) ([]Hop, error)
}

// NewRouter returns the router implementing policy p over network n. The
// empty policy selects PolicyBFS; an unknown policy panics.
func NewRouter(n *Network, p Policy) Router {
	switch p {
	case "", PolicyBFS:
		return bfsRouter{n}
	case PolicyAdaptive:
		return adaptiveRouter{n}
	default:
		panic(fmt.Sprintf("nectar: unknown routing policy %q: use %q or %q",
			p, PolicyBFS, PolicyAdaptive))
	}
}

// bfsRouter is the default policy: Network.Route / Network.MulticastTree.
type bfsRouter struct{ n *Network }

func (r bfsRouter) Route(src, dst int) ([]Hop, error) { return r.n.Route(src, dst) }
func (r bfsRouter) MulticastTree(src int, dsts []int) ([]Hop, error) {
	return r.n.MulticastTree(src, dsts)
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
// condition for deadlock freedom.
type adaptiveRouter struct{ n *Network }

func (r adaptiveRouter) Route(src, dst int) ([]Hop, error) {
	if src == dst {
		return nil, fmt.Errorf("topo: route from CAB %d to itself", src)
	}
	n := r.n
	from, to := n.attachHub[src], n.attachHub[dst]
	if from == to {
		return n.hopsForPath([]int{from}, dst), nil
	}
	f := n.fieldTo(to)
	if f.dist[from] < 0 {
		return nil, fmt.Errorf("topo: no path from CAB %d to CAB %d", src, dst)
	}
	path := []int{from}
	for cur := from; cur != to; {
		next, ok := n.adaptiveStep(cur, f)
		if !ok {
			return nil, fmt.Errorf("topo: no path from CAB %d to CAB %d", src, dst)
		}
		path = append(path, next)
		cur = next
	}
	return n.hopsForPath(path, dst), nil
}

func (r adaptiveRouter) MulticastTree(src int, dsts []int) ([]Hop, error) {
	return r.n.MulticastTree(src, dsts)
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
		f.escape[cur] = -1
		if path, ok := n.structuredPath(cur, to); ok && len(path) > 1 {
			f.escape[cur] = path[1]
		}
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
	queue := []int{to}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
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

// structuredPath returns the shape-aware HUB path from HUB `from` to HUB
// `to`: wrap-free dimension-order on grids, up/down over the lowest-index
// live spine on fat trees. It reports false when the network has no shape
// metadata or a needed link is down.
func (n *Network) structuredPath(from, to int) ([]int, bool) {
	switch {
	case n.shape.grid() && len(n.coords) == len(n.hubs):
		return n.dimOrderPath(from, to)
	case n.shape.Kind == KindFatTree && len(n.levels) == len(n.hubs):
		return n.upDownPath(from, to)
	}
	return nil, false
}

// dimOrderPath walks from HUB `from` to HUB `to` correcting x, then y,
// then z. Each step moves one unit along the current dimension, in the
// direction of the remaining offset, so wrap links are never taken.
func (n *Network) dimOrderPath(from, to int) ([]int, bool) {
	s := n.shape
	at := n.coords[from]
	want := n.coords[to]
	idx := func(c [3]int) int { return (c[2]*s.Y+c[1])*s.X + c[0] }
	path := []int{from}
	for d := 0; d < 3; d++ {
		for at[d] != want[d] {
			step := 1
			if want[d] < at[d] {
				step = -1
			}
			next := at
			next[d] = at[d] + step
			cur, nxt := idx(at), idx(next)
			if _, ok := n.portToward(cur, nxt); !ok {
				return nil, false
			}
			path = append(path, nxt)
			at = next
		}
	}
	return path, true
}

// upDownPath routes a fat tree: same leaf is trivial, otherwise up to the
// lowest-index spine with live links both ways, then down.
func (n *Network) upDownPath(from, to int) ([]int, bool) {
	if from == to {
		return []int{from}, true
	}
	for spine := range n.hubs {
		if n.levels[spine] != 1 {
			continue
		}
		if _, up := n.portToward(from, spine); !up {
			continue
		}
		if _, down := n.portToward(spine, to); !down {
			continue
		}
		return []int{from, spine, to}, true
	}
	return nil, false
}

// escapePath is the escape subnetwork's route between two HUBs: wrap-free
// dimension-order on grids, up/down on fat trees. Link state is ignored —
// the escape network is a static object whose channel-dependency graph
// CheckEscapeAcyclic examines.
func (n *Network) escapePath(from, to int) ([]int, bool) {
	switch {
	case n.shape.grid() && len(n.coords) == len(n.hubs):
		s := n.shape
		at := n.coords[from]
		want := n.coords[to]
		idx := func(c [3]int) int { return (c[2]*s.Y+c[1])*s.X + c[0] }
		path := []int{from}
		for d := 0; d < 3; d++ {
			for at[d] != want[d] {
				step := 1
				if want[d] < at[d] {
					step = -1
				}
				next := at
				next[d] = at[d] + step
				path = append(path, idx(next))
				at = next
			}
		}
		return path, true
	case n.shape.Kind == KindFatTree && len(n.levels) == len(n.hubs):
		if from == to {
			return []int{from}, true
		}
		for spine := range n.hubs {
			if n.levels[spine] == 1 && n.edgeBetween(from, spine) != nil && n.edgeBetween(spine, to) != nil {
				return []int{from, spine, to}, true
			}
		}
		return nil, false
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
