// Package topo builds Nectar networks: HUBs, CABs, and the fiber pairs
// wiring them together, for the topologies of paper Figures 1-4 (single-HUB
// systems, HUB clusters, and multi-HUB systems such as 2-D meshes: "The HUB
// clusters may be connected in any topology appropriate to the application
// environment"). It also computes routes — the per-HUB output-port hop
// lists from which the datalink builds its command packets — including
// multicast trees.
package topo

import (
	"fmt"
	"slices"

	"repro/internal/cab"
	"repro/internal/fiber"
	"repro/internal/hub"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Options configure network construction.
type Options struct {
	// HubPorts is the port count per HUB (prototype: 16).
	HubPorts int
	// Errors, if non-zero, is applied to every fiber link.
	Errors fiber.ErrorModel
}

// DefaultOptions returns prototype parameters.
func DefaultOptions() Options {
	return Options{
		HubPorts: hub.DefaultPorts,
	}
}

// Hop is one step of a route: an output port on a specific HUB. Terminal
// reports that the open targets a destination CAB (the datalink puts the
// "and reply" variant on terminal opens).
type Hop struct {
	HubID    byte
	Port     byte
	Terminal bool
}

// Network is a wired Nectar system.
type Network struct {
	eng   *sim.Engine
	board *obs.FlightRecorder
	opts  Options

	hubs   []*hub.Hub
	boards []*cab.Board

	// attachHub[cabID]/attachPort[cabID]: where each CAB plugs in.
	attachHub  []int
	attachPort []int

	// nextPort[hubIdx] is the next unassigned port (CABs from 0 up,
	// HUB-HUB links from the top down).
	nextCABPort []int
	nextHubPort []int

	// adj[hubIdx] lists inter-HUB edges.
	adj [][]edge

	// cabLinks[cabID] = {CAB->HUB link, HUB->CAB link}.
	cabLinks [][2]*fiber.Link

	// observers are notified after an inter-HUB link changes routing state
	// through FailLink/RestoreLink (not the silent operator SetLinkState).
	observers []func(a, b int, up bool)

	// Shape metadata recorded by Spec.Build: the declarative spec, per-HUB
	// grid coordinates (grid shapes), and per-HUB levels (fat trees). The
	// routing policies consult these; hand-built networks leave them empty
	// and every policy degrades to BFS.
	shape  Spec
	coords [][3]int
	levels []int

	linkSeed int64

	// frames is the system's one store of packet-switched frames: every
	// datalink takes its frames from it, and the destination's datalink
	// returns them (see fiber.Frame).
	frames fiber.FrameStore

	// fields[to] caches the adaptive router's route field toward HUB to
	// (nil until first routed toward; the slice is nil after every
	// invalidateRoutes).
	fields []*routeField

	// The breadth-first searches' scratch, reused by every search.
	queue, prev []int
}

type edge struct {
	to       int // neighbor hub index
	portHere int // output port on this hub leading to neighbor
	down     bool
	link     *fiber.Link // outgoing fiber toward the neighbor
}

// NewNetwork returns an empty network whose HUBs note their crossbar
// events on board (nil: none).
func NewNetwork(eng *sim.Engine, board *obs.FlightRecorder, opts Options) *Network {
	if opts.HubPorts == 0 {
		opts.HubPorts = hub.DefaultPorts
	}
	return &Network{eng: eng, board: board, opts: opts}
}

// Engine returns the simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Frames returns the network's packet-switched frame store.
func (n *Network) Frames() *fiber.FrameStore { return &n.frames }

// AddHub creates a HUB and returns its index. HUB IDs are assigned
// sequentially starting at 1 (0 is reserved); adding more than MaxHubs
// HUBs panics, since Hop.HubID is one byte.
func (n *Network) AddHub() int {
	if len(n.hubs) >= MaxHubs {
		panic(fmt.Sprintf("nectar: cannot add HUB %d: topo.Hop.HubID is one byte and ID 0 is reserved, so at most %d HUBs fit",
			len(n.hubs)+1, MaxHubs))
	}
	id := byte(len(n.hubs) + 1)
	h := hub.New(n.eng, id, n.opts.HubPorts, n.board)
	n.hubs = append(n.hubs, h)
	n.adj = append(n.adj, nil)
	n.invalidateRoutes()
	n.nextCABPort = append(n.nextCABPort, 0)
	n.nextHubPort = append(n.nextHubPort, n.opts.HubPorts-1)
	return len(n.hubs) - 1
}

// Hubs returns the HUBs.
func (n *Network) Hubs() []*hub.Hub { return n.hubs }

// Shape returns the declarative spec this network was built from (the zero
// Spec for hand-built networks).
func (n *Network) Shape() Spec { return n.shape }

// setCoord records hub h's grid coordinate.
func (n *Network) setCoord(h, x, y, z int) {
	for len(n.coords) <= h {
		n.coords = append(n.coords, [3]int{})
	}
	n.coords[h] = [3]int{x, y, z}
	n.invalidateRoutes()
}

// setLevel records hub h's fat-tree level (0 leaf, 1 spine).
func (n *Network) setLevel(h, level int) {
	for len(n.levels) <= h {
		n.levels = append(n.levels, 0)
	}
	n.levels[h] = level
	n.invalidateRoutes()
}

// Hub returns hub i.
func (n *Network) Hub(i int) *hub.Hub { return n.hubs[i] }

// Boards returns the CAB boards in id order.
func (n *Network) Boards() []*cab.Board { return n.boards }

// Board returns the CAB with the given id.
func (n *Network) Board(id int) *cab.Board { return n.boards[id] }

// HubOf returns the hub index a CAB attaches to.
func (n *Network) HubOf(cabID int) int { return n.attachHub[cabID] }

// PortOf returns the HUB port a CAB attaches to.
func (n *Network) PortOf(cabID int) int { return n.attachPort[cabID] }

// newLink builds a fiber link with the network's options; credit restores
// its sender's ready bit.
func (n *Network) newLink(name string, dst fiber.Endpoint, credit func()) *fiber.Link {
	l := fiber.NewLink(n.eng, name, dst)
	l.SetCreditReturn(credit)
	if n.opts.Errors.BitErrorRate != 0 {
		m := n.opts.Errors
		n.linkSeed++
		m.Seed += n.linkSeed
		l.SetErrorModel(m)
	}
	return l
}

// AttachCAB creates a CAB board and wires it to the next free low port of
// hub hubIdx. It returns the board.
func (n *Network) AttachCAB(hubIdx int, name string) *cab.Board {
	id := len(n.boards)
	if name == "" {
		name = fmt.Sprintf("cab%d", id)
	}
	b := cab.NewBoard(n.eng, id, name)
	port := n.nextCABPort[hubIdx]
	if port > n.nextHubPort[hubIdx] {
		panic(fmt.Sprintf("topo: hub %d out of ports", hubIdx))
	}
	n.nextCABPort[hubIdx]++
	n.wireCAB(b, hubIdx, port)
	return b
}

// wireCAB connects board b to (hubIdx, port) with a fiber pair; each link
// carries its sender's ready-bit back-channel.
func (n *Network) wireCAB(b *cab.Board, hubIdx, port int) {
	h := n.hubs[hubIdx]
	p := h.Port(port)
	// CAB -> HUB input queue: our ready bit sets when it returns a credit.
	toHub := n.newLink(b.Name()+"->"+h.Name(), p, b.SetNetReady)
	p.SetUpstreamReady(toHub.ReturnCredit)
	// HUB output register -> CAB: the output's ready bit likewise.
	fromHub := n.newLink(h.Name()+"->"+b.Name(), b, p.SetReady)
	h.ConnectOutput(port, fromHub)
	b.AttachNet(toHub, fromHub.ReturnCredit)

	n.cabLinks = append(n.cabLinks, [2]*fiber.Link{toHub, fromHub})
	n.boards = append(n.boards, b)
	n.attachHub = append(n.attachHub, hubIdx)
	n.attachPort = append(n.attachPort, port)
}

// ConnectHubs wires two HUBs with a fiber pair using the next free high
// port on each side, and records the edge for routing.
func (n *Network) ConnectHubs(a, b int) {
	pa := n.nextHubPort[a]
	pb := n.nextHubPort[b]
	if pa < n.nextCABPort[a] || pb < n.nextCABPort[b] {
		panic("topo: out of ports for inter-hub link")
	}
	n.nextHubPort[a]--
	n.nextHubPort[b]--
	ha, hb := n.hubs[a], n.hubs[b]
	lab := n.newLink(ha.Name()+"->"+hb.Name(), hb.Port(pb), ha.Port(pa).SetReady)
	lba := n.newLink(hb.Name()+"->"+ha.Name(), ha.Port(pa), hb.Port(pb).SetReady)
	ha.ConnectOutput(pa, lab)
	hb.ConnectOutput(pb, lba)
	hb.Port(pb).SetUpstreamReady(lab.ReturnCredit)
	ha.Port(pa).SetUpstreamReady(lba.ReturnCredit)
	n.adj[a] = append(n.adj[a], edge{to: b, portHere: pa, link: lab})
	n.adj[b] = append(n.adj[b], edge{to: a, portHere: pb, link: lba})
	n.invalidateRoutes()
}

// SetLinkState marks the inter-HUB link between hubs a and b up or down
// for route computation — the routing half of "recovery from hardware
// failures" (paper §4): an operator marks a failed link out of service and
// CABs flush their cached routes; subsequent traffic takes the surviving
// paths. The fibers themselves are untouched.
func (n *Network) SetLinkState(a, b int, up bool) {
	for i := range n.adj[a] {
		if n.adj[a][i].to == b {
			n.adj[a][i].down = !up
		}
	}
	for i := range n.adj[b] {
		if n.adj[b][i].to == a {
			n.adj[b][i].down = !up
		}
	}
	n.invalidateRoutes()
}

// OnChange registers an observer called after FailLink or RestoreLink
// changes an inter-HUB link's routing state. The system builder subscribes
// route-cache flushes here; fault injectors subscribe detection-latency
// accounting.
func (n *Network) OnChange(fn func(a, b int, up bool)) {
	n.observers = append(n.observers, fn)
}

// edgeBetween returns the edge record from hub a toward hub b regardless of
// its up/down state.
func (n *Network) edgeBetween(a, b int) *edge {
	for i := range n.adj[a] {
		if n.adj[a][i].to == b {
			return &n.adj[a][i]
		}
	}
	return nil
}

// InterHubLinks returns the fiber pair of the a<->b inter-HUB link
// (a->b first), or nils when the hubs are not adjacent.
func (n *Network) InterHubLinks(a, b int) (*fiber.Link, *fiber.Link) {
	ea, eb := n.edgeBetween(a, b), n.edgeBetween(b, a)
	if ea == nil || eb == nil {
		return nil, nil
	}
	return ea.link, eb.link
}

// CABLinks returns CAB cabID's fiber pair (CAB->HUB first).
func (n *Network) CABLinks(cabID int) (*fiber.Link, *fiber.Link) {
	return n.cabLinks[cabID][0], n.cabLinks[cabID][1]
}

// InterHubEdges lists every inter-HUB link once as a hub-index pair (a<b).
func (n *Network) InterHubEdges() [][2]int {
	var out [][2]int
	for a := range n.adj {
		for _, e := range n.adj[a] {
			if a < e.to {
				out = append(out, [2]int{a, e.to})
			}
		}
	}
	return out
}

// EdgePort returns the output port on hub a leading to hub b regardless of
// the link's routing state (the probe path must keep testing dead links to
// notice their recovery).
func (n *Network) EdgePort(a, b int) (int, bool) {
	if e := n.edgeBetween(a, b); e != nil {
		return e.portHere, true
	}
	return 0, false
}

// LinkUp reports the routing state of the a<->b inter-HUB link.
func (n *Network) LinkUp(a, b int) bool {
	e := n.edgeBetween(a, b)
	return e != nil && !e.down
}

// SetLinkPhysical severs (up=false) or repairs (up=true) both fibers of the
// a<->b inter-HUB link. This is the fault injector's hook: routing state is
// untouched — the liveness probes must detect the change and call
// FailLink/RestoreLink. Both directions change together because command
// replies travel the never-blocked reverse channel out-of-band: a
// half-severed pair is not observable in this model.
func (n *Network) SetLinkPhysical(a, b int, up bool) {
	if la, lb := n.InterHubLinks(a, b); la != nil {
		la.SetDown(!up)
		lb.SetDown(!up)
	}
}

// FailLink declares the a<->b inter-HUB link dead: routes stop using it
// (SetLinkState), the output registers feeding it are force-reset so
// traffic wedged on the dead fiber unblocks and retries over surviving
// paths, and observers (route-cache flushes, fault accounting) fire. This
// is the automated form of the paper's §4 "recovery from hardware
// failures", invoked by the datalink's liveness prober.
func (n *Network) FailLink(a, b int) {
	if !n.LinkUp(a, b) {
		return
	}
	n.SetLinkState(a, b, false)
	if ea := n.edgeBetween(a, b); ea != nil {
		n.hubs[a].ResetOutput(ea.portHere, false)
		n.hubs[a].Port(ea.portHere).SetFailed(true)
	}
	if eb := n.edgeBetween(b, a); eb != nil {
		n.hubs[b].ResetOutput(eb.portHere, false)
		n.hubs[b].Port(eb.portHere).SetFailed(true)
	}
	for _, fn := range n.observers {
		fn(a, b, false)
	}
}

// RestoreLink returns a previously failed link to service: routes may use
// it again, the output registers feeding it are reset to ready, and
// observers fire.
func (n *Network) RestoreLink(a, b int) {
	if n.LinkUp(a, b) {
		return
	}
	n.SetLinkState(a, b, true)
	if ea := n.edgeBetween(a, b); ea != nil {
		n.hubs[a].Port(ea.portHere).SetFailed(false)
		n.hubs[a].ResetOutput(ea.portHere, true)
	}
	if eb := n.edgeBetween(b, a); eb != nil {
		n.hubs[b].Port(eb.portHere).SetFailed(false)
		n.hubs[b].ResetOutput(eb.portHere, true)
	}
	for _, fn := range n.observers {
		fn(a, b, true)
	}
}

// ResetCABPort re-initializes the HUB port a CAB attaches to, dropping
// whatever the crashed CAB left in the input queue and un-wedging senders
// parked on its not-ready output register. Called on CAB reboot.
func (n *Network) ResetCABPort(cabID int) {
	n.hubs[n.attachHub[cabID]].ResetPort(n.attachPort[cabID])
}

// scratch returns the breadth-first searches' queue, empty, and their
// predecessor table, both sized to the HUB count (each HUB enters the
// queue at most once).
func (n *Network) scratch() (queue, prev []int) {
	if len(n.prev) != len(n.hubs) {
		n.queue, n.prev = make([]int, 0, len(n.hubs)), make([]int, len(n.hubs))
	}
	return n.queue[:0], n.prev
}

// bfsPath runs the fewest-hop breadth-first search from hub `from` over the
// up links until it reaches hub `to`, leaving each HUB's predecessor on the
// path in n.prev.
func (n *Network) bfsPath(from, to int) bool {
	if from == to {
		return true
	}
	queue, prev := n.scratch()
	for i := range prev {
		prev[i] = -1
	}
	prev[from] = from
	queue = append(queue, from)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, e := range n.adj[cur] {
			if e.down || prev[e.to] != -1 {
				continue
			}
			prev[e.to] = cur
			if e.to == to {
				return true
			}
			queue = append(queue, e.to)
		}
	}
	return false
}

// portToward returns the output port on hub a leading to adjacent hub b.
func (n *Network) portToward(a, b int) (int, bool) {
	for _, e := range n.adj[a] {
		if e.to == b && !e.down {
			return e.portHere, true
		}
	}
	return 0, false
}

// hopToward is the open on hub a of its output toward adjacent hub b.
func (n *Network) hopToward(a, b int) Hop {
	port, _ := n.portToward(a, b)
	return Hop{HubID: n.hubs[a].ID(), Port: byte(port)}
}

// terminalHop is the open onto CAB dst's port, the last of every route.
func (n *Network) terminalHop(dst int) Hop {
	return Hop{HubID: n.hubs[n.attachHub[dst]].ID(), Port: byte(n.attachPort[dst]), Terminal: true}
}

// routeError reports why no route leads from CAB src to CAB dst.
func routeError(src, dst int) error {
	if src == dst {
		return fmt.Errorf("topo: route from CAB %d to itself", src)
	}
	return fmt.Errorf("topo: no path from CAB %d to CAB %d", src, dst)
}

// Route computes the hop list from CAB src to CAB dst: one open per HUB on
// the path, ending with the open onto the destination CAB's port. This is
// the deterministic BFS shortest-path policy; NewRouter selects others.
func (n *Network) Route(src, dst int) ([]Hop, error) { return n.RouteInto(nil, src, dst) }

// RouteInto appends Route(src, dst) to buf, writing the opens from the
// search's predecessor chain, last first; on error it returns buf
// unchanged.
func (n *Network) RouteInto(buf []Hop, src, dst int) ([]Hop, error) {
	from, to := n.attachHub[src], n.attachHub[dst]
	if src == dst || !n.bfsPath(from, to) {
		return buf, routeError(src, dst)
	}
	k := 1
	for at := to; at != from; at = n.prev[at] {
		k++
	}
	hops := slices.Grow(buf, k)[:len(buf)+k]
	hops[len(hops)-1] = n.terminalHop(dst)
	for i, at := len(hops)-2, to; at != from; i, at = i-1, n.prev[at] {
		hops[i] = n.hopToward(n.prev[at], at)
	}
	return hops, nil
}

// MulticastTree computes the DFS-ordered open list reaching every
// destination CAB, as in paper §4.2.2: the shortest-path tree is opened
// hop by hop, and each terminal open (onto a destination CAB's port)
// carries the reply flag.
//
// The destination set is normalized first: duplicates are collapsed (a CAB
// gets exactly one terminal open however often it is listed), and a
// destination equal to the source is skipped — the sender already holds the
// data, and the crossbar cannot loop a port back onto itself. Only a set
// that is empty after normalization is an error.
func (n *Network) MulticastTree(src int, dsts []int) ([]Hop, error) {
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
		leaf := n.attachHub[d]
		if !n.bfsPath(root, leaf) {
			return nil, fmt.Errorf("topo: no path to CAB %d", d)
		}
		reached++
		// Every search from root picks the same predecessors, so the
		// paths join into one tree: climb until it is reached.
		for at := leaf; !inTree[at]; at = n.prev[at] {
			inTree[at] = true
			children[n.prev[at]] = append(children[n.prev[at]], at)
		}
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
			hops = append(hops, n.hopToward(h, c))
			dfs(c)
		}
	}
	dfs(root)
	return hops, nil
}

// CheckInvariants verifies every HUB's crossbar state.
func (n *Network) CheckInvariants() error {
	for _, h := range n.hubs {
		if err := h.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}
