package datalink

import (
	"sort"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Prober is the datalink's link liveness monitor — the detection half of
// the paper's §4 "recovery from hardware failures", automated: one
// designated CAB per HUB echo-probes each of its HUB's inter-HUB links at a
// fixed interval. After probeMisses consecutive lost probes it declares the
// link dead (topo.Network.FailLink: routing fails over, wedged output
// registers reset, route caches flush via the network's change observers).
// Dead links keep being probed; the first successful echo restores them.
//
// Probing is periodic, so a started prober generates simulation events
// forever: drive such systems with RunUntil, or Stop the probers to let the
// event queue drain.
type Prober struct {
	d       *Datalink
	hubIdx  int
	edges   []*probeEdge
	running bool
	stopped bool

	interval sim.Time

	failed   *trace.Counter
	restored *trace.Counter
}

// probeEdge is one monitored inter-HUB link (from this prober's HUB).
type probeEdge struct {
	to     int // neighbor hub index
	port   int // output port on our hub toward the neighbor
	missed int // consecutive lost probes
}

// NewProber creates (but does not start) a prober for the links of the HUB
// this datalink's CAB attaches to.
func NewProber(d *Datalink, p Params) *Prober {
	pr := &Prober{
		d:        d,
		hubIdx:   d.net.HubOf(d.board.ID()),
		interval: p.ProbeInterval,
		failed:   d.k.Registry().Counter("net.links_failed"),
		restored: d.k.Registry().Counter("net.links_restored"),
	}
	var neighbors []int
	for _, e := range d.net.InterHubEdges() {
		switch pr.hubIdx {
		case e[0]:
			neighbors = append(neighbors, e[1])
		case e[1]:
			neighbors = append(neighbors, e[0])
		}
	}
	sort.Ints(neighbors)
	for _, to := range neighbors {
		port, ok := d.net.EdgePort(pr.hubIdx, to)
		if !ok {
			continue
		}
		pr.edges = append(pr.edges, &probeEdge{to: to, port: port})
	}
	return pr
}

// Edges returns the number of links this prober monitors.
func (pr *Prober) Edges() int { return len(pr.edges) }

// Start launches the probe loop as a kernel daemon thread. Starting a
// prober with no links to monitor is a no-op.
func (pr *Prober) Start() {
	if pr.running || len(pr.edges) == 0 {
		return
	}
	pr.running = true
	pr.d.k.SpawnDaemon("link-prober", pr.loop)
}

// Stop ends the probe loop after its current round, letting the simulation
// event queue drain.
func (pr *Prober) Stop() { pr.stopped = true }

// loop probes every monitored edge each round, sleeping the interval
// between rounds.
func (pr *Prober) loop(th *kernel.Thread) {
	net := pr.d.net
	hubHere := net.Hub(pr.hubIdx).ID()
	for !pr.stopped {
		for _, e := range pr.edges {
			if pr.stopped {
				return
			}
			hubThere := net.Hub(e.to).ID()
			alive := pr.d.Probe(th, hubHere, hubThere, byte(e.port), probeTimeout)
			if alive {
				e.missed = 0
				if !net.LinkUp(pr.hubIdx, e.to) {
					net.RestoreLink(pr.hubIdx, e.to)
					pr.restored.Inc()
				}
				continue
			}
			e.missed++
			if e.missed >= probeMisses && net.LinkUp(pr.hubIdx, e.to) {
				net.FailLink(pr.hubIdx, e.to)
				pr.failed.Inc()
			}
		}
		th.Sleep(pr.interval)
	}
}
