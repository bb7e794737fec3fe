package topo

import "fmt"

// The path-based route computation that RouteInto replaced, kept verbatim
// as the reference the property tests hold the in-place routers to: each
// builds the HUB path as a slice, then converts it to opens.

// refRoute is the reference for Router.Route under policy p.
func (n *Network) refRoute(p Policy, src, dst int) ([]Hop, error) {
	if p == PolicyAdaptive {
		return n.refAdaptiveRoute(src, dst)
	}
	return n.refBFSRoute(src, dst)
}

// refAdaptiveRoute walks the adaptive policy's HUB path, then converts it.
func (n *Network) refAdaptiveRoute(src, dst int) ([]Hop, error) {
	if src == dst {
		return nil, fmt.Errorf("topo: route from CAB %d to itself", src)
	}
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

// refBFSRoute is the BFS policy over refHubPath.
func (n *Network) refBFSRoute(src, dst int) ([]Hop, error) {
	if src == dst {
		return nil, fmt.Errorf("topo: route from CAB %d to itself", src)
	}
	path, ok := n.refHubPath(n.attachHub[src], n.attachHub[dst])
	if !ok {
		return nil, fmt.Errorf("topo: no path from CAB %d to CAB %d", src, dst)
	}
	return n.hopsForPath(path, dst), nil
}

// refHubPath is the fewest-hop BFS HUB path, rebuilt by prepending.
func (n *Network) refHubPath(from, to int) ([]int, bool) {
	if from == to {
		return []int{from}, true
	}
	prev := make([]int, len(n.hubs))
	for i := range prev {
		prev[i] = -1
	}
	prev[from] = from
	queue := []int{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range n.adj[cur] {
			if e.down || prev[e.to] != -1 {
				continue
			}
			prev[e.to] = cur
			if e.to == to {
				path := []int{to}
				for at := to; at != from; {
					at = prev[at]
					path = append([]int{at}, path...)
				}
				return path, true
			}
			queue = append(queue, e.to)
		}
	}
	return nil, false
}

// hopsForPath converts a hub-index path (source hub through the destination
// CAB's hub) into the datalink's hop list: one open per inter-HUB step plus
// the terminal open onto the destination CAB's port.
func (n *Network) hopsForPath(path []int, dst int) []Hop {
	hops := make([]Hop, 0, len(path))
	for i := 0; i < len(path)-1; i++ {
		port, _ := n.portToward(path[i], path[i+1])
		hops = append(hops, Hop{HubID: n.hubs[path[i]].ID(), Port: byte(port)})
	}
	last := path[len(path)-1]
	return append(hops, Hop{
		HubID:    n.hubs[last].ID(),
		Port:     byte(n.attachPort[dst]),
		Terminal: true,
	})
}

// structuredPath returns the shape-aware HUB path from HUB `from` to HUB
// `to`: wrap-free dimension-order on grids, up/down over the lowest-index
// live spine on fat trees. It reports false when the network has no shape
// metadata or a needed link is down. Its second HUB is what structuredHop
// must return.
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

// refMulticastTree is MulticastTree over refHubPath, checking every node of
// each destination's path for membership of the tree.
func (n *Network) refMulticastTree(src int, dsts []int) ([]Hop, error) {
	root := n.attachHub[src]
	// children[h] = hubs below h in the tree; terminals[h] = CAB ports on
	// h that are destinations.
	children := make(map[int][]int)
	terminals := make(map[int][]int)
	inTree := map[int]bool{root: true}
	seen := make(map[int]bool, len(dsts))
	reached := 0
	for _, d := range dsts {
		if d == src || seen[d] {
			continue
		}
		seen[d] = true
		path, ok := n.refHubPath(root, n.attachHub[d])
		if !ok {
			return nil, fmt.Errorf("topo: no path to CAB %d", d)
		}
		reached++
		for i := 1; i < len(path); i++ {
			if !inTree[path[i]] {
				inTree[path[i]] = true
				children[path[i-1]] = append(children[path[i-1]], path[i])
			}
		}
		leaf := path[len(path)-1]
		terminals[leaf] = append(terminals[leaf], n.attachPort[d])
	}
	if reached == 0 {
		return nil, fmt.Errorf("topo: empty multicast set")
	}
	var hops []Hop
	var dfs func(h int)
	dfs = func(h int) {
		for _, p := range terminals[h] {
			hops = append(hops, Hop{HubID: n.hubs[h].ID(), Port: byte(p), Terminal: true})
		}
		for _, c := range children[h] {
			port, _ := n.portToward(h, c)
			hops = append(hops, Hop{HubID: n.hubs[h].ID(), Port: byte(port)})
			dfs(c)
		}
	}
	dfs(root)
	return hops, nil
}
