// Package core assembles complete Nectar systems: HUBs and fibers from the
// topology layer, and on every CAB board a kernel, datalink, and transport
// stack. It is the construction entry point used by the public nectar
// package, the examples, and the experiment harness.
package core

import (
	"fmt"

	"repro/internal/cab"
	"repro/internal/datalink"
	"repro/internal/hub/comb"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/flow"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Params aggregates all model parameters. Zero-value fields are replaced by
// the defaults documented in each package (which are the values used for
// the paper-reproduction experiments).
type Params struct {
	Datalink  datalink.Params
	Transport transport.Params
	Topo      topo.Options
	// Routing selects the route-computation policy every CAB's datalink
	// uses (empty: topo.PolicyBFS). Set it with WithRouting.
	Routing topo.Policy
	// RecorderLimit arms the HUBs' instrumentation board, a flight
	// recorder that keeps the last RecorderLimit crossbar events and exact
	// counts of all of them (0 leaves it off).
	RecorderLimit int
	// TraceSpans bounds retained latency spans (0 disables span tracing:
	// the send path stays allocation-free).
	TraceSpans int
	// Metrics enables the metrics registry: every layer auto-registers
	// its counters and gauges on it.
	Metrics bool

	// Sampler enables the continuous-telemetry sampler (System.Sampler):
	// every DefaultSamplerPeriod of simulated time it snapshots HUB port
	// queue depths and utilization, transport in-flight operations and
	// go-back-N windows, and flow-control credit into ring-buffered time
	// series. Off by default: no sampling events exist.
	Sampler bool
	// FlightRecorder enables the flight recorder (System.FR) with a ring
	// of obs.DefaultFlightEvents events. Off by default: layer Note calls
	// hit a nil recorder and cost nothing.
	FlightRecorder bool
	// StallWatchdog enables the stall watchdog (System.Watchdog): every
	// DefaultStallCheck of simulated time it checks that in-flight
	// transport operations are making progress, and dumps the flight
	// recorder when they are not.
	StallWatchdog bool
	// Flows enables the flow observatory (System.Flows): NetFlow-style
	// per-(src CAB, dst CAB, protocol) accounting on the datalink and
	// transport hot paths, with a space-saving heavy-hitter sketch of
	// flow.DefaultTopK entries. Off by default: accounting calls hit a nil
	// table and cost nothing.
	Flows bool
	// SLO configures the service-level-objective engine (System.SLO):
	// declared latency/success objectives evaluated in virtual time with
	// multi-window burn-rate alerting and diagnosis-bundle capture. Empty
	// Objectives disables it (the default: transport outcome hooks hit a
	// nil engine and cost one pointer compare). Set it with WithSLO. With
	// span tracing on, the objectives also arm tail-based span sampling
	// (sloTailConfig).
	SLO slo.Params

	// HubCombining arms the in-network combining engine on every HUB
	// (internal/hub/comb): reduce/allreduce/barrier operands merge at the
	// switch instead of at the endpoints. Off by default — a dark engine
	// declines combining commands and no combining state, metric, or
	// event exists, so disabled systems are digest-identical to builds
	// without the feature. Arm it with WithHubCombining.
	HubCombining bool
}

// DefaultParams returns the full prototype parameter set.
func DefaultParams() Params {
	return Params{
		Transport: transport.DefaultParams(),
		Topo:      topo.DefaultOptions(),
	}
}

// normalize fills each zero-valued field that has a nonzero default,
// leaving every other field as the caller set it.
func (p Params) normalize() Params {
	def := DefaultParams()
	if p.Transport.Window == 0 {
		p.Transport.Window = def.Transport.Window
	}
	if p.Transport.ReqTimeout == 0 {
		p.Transport.ReqTimeout = def.Transport.ReqTimeout
	}
	if p.Topo.HubPorts == 0 {
		p.Topo.HubPorts = def.Topo.HubPorts
	}
	return p
}

// CABStack is one CAB's full software stack.
type CABStack struct {
	Board  *cab.Board
	Kernel *kernel.Kernel
	DL     *datalink.Datalink
	TP     *transport.Transport
}

// Crash halts the CAB: the board stops sending and receiving, and both
// protocol layers discard their in-flight state (blocked client threads are
// woken with errors — the threads themselves survive, a simplification of a
// real crash where they would be destroyed outright).
func (c *CABStack) Crash() {
	// Crash and reboot are exactly the events a post-mortem needs.
	c.Kernel.FlightRecorder().Note(obs.FCrash, c.Board.Name(), int64(c.Board.ID()), 0)
	c.Board.PowerOff()
	c.TP.Crash()
	c.DL.Crash()
}

// Reboot restarts a crashed CAB with cold mailboxes: power returns, every
// mailbox is purged (in-flight messages are lost, as after a real reboot),
// and the HUB port it hangs off is reset so the network can deliver again.
// Flow-control credit needs no repair: power-on sets the board's ready bit,
// and the port reset returns the credit of every packet it discards.
func (c *CABStack) Reboot(net *topo.Network) {
	c.Kernel.FlightRecorder().Note(obs.FReboot, c.Board.Name(), int64(c.Board.ID()), 0)
	c.Board.PowerOn()
	c.Kernel.Reboot()
	net.ResetCABPort(c.Board.ID())
	c.DL.FlushRoutes()
}

// System is an assembled Nectar system.
type System struct {
	Eng    *sim.Engine
	Net    *topo.Network
	Params Params
	CABs   []*CABStack

	// Board is the HUBs' instrumentation board (nil unless
	// Params.RecorderLimit > 0); hub.WriteLog renders it.
	Board *obs.FlightRecorder

	// Tr is the system-wide span tracer (nil unless Params.TraceSpans > 0).
	Tr *trace.Tracer
	// Reg is the system-wide metrics registry (nil unless Params.Metrics).
	Reg *trace.Registry

	// Probers are the per-HUB link liveness monitors (empty unless
	// Params.Datalink.ProbeInterval > 0). Probing generates simulation
	// events forever: drive probing systems with RunUntil, or call
	// StopProbers to let Run drain.
	Probers []*datalink.Prober

	// Continuous telemetry (telemetry.go), each nil unless enabled in
	// Params: the virtual-time sampler, the flight recorder, and the
	// stall watchdog. An armed sampler or watchdog generates simulation
	// events forever: drive such systems with RunUntil, or call
	// StopTelemetry to let Run drain.
	Sampler  *obs.Sampler
	FR       *obs.FlightRecorder
	Watchdog *obs.Watchdog
	// Flows is the flow observatory's accounting table (nil unless
	// Params.Flows): per-(src, dst, proto) flow records fed by the
	// datalink/transport hot paths, with a heavy-hitter sketch. Snapshot
	// the link side with Weathermap.
	Flows *flow.Table
	// SLO is the service-level-objective engine (nil unless
	// Params.SLO.Objectives is non-empty): windowed burn-rate evaluation
	// of declared objectives over the transport outcome stream, with a
	// deterministic alert stream and captured diagnosis bundles. An armed
	// engine generates evaluation events forever: drive such systems with
	// RunUntil, or call StopTelemetry to let Run drain.
	SLO *slo.Engine
	// OnStall, when non-nil, replaces the watchdog's default stall
	// reaction (a flight-recorder post-mortem on stderr).
	OnStall func(at sim.Time)

	// nextCombTag allocates system-unique combining-slot tags (one per
	// combining-enabled collective group), so groups that reuse a group
	// id on disjoint CABs never collide in a shared HUB's slot table.
	nextCombTag uint16
}

// NextCombTag returns a fresh combining-slot tag. Tags are 16-bit and
// wrap; a wrap only matters if a 65536-group-old slot is still in flight,
// which the straggler timeout makes impossible.
func (s *System) NextCombTag() uint16 {
	s.nextCombTag++
	return s.nextCombTag
}

// StopProbers ends every link prober after its current round.
func (s *System) StopProbers() {
	for _, pr := range s.Probers {
		pr.Stop()
	}
}

// StopTelemetry disarms the sampler, stall watchdog, and SLO engine
// (collected series, recorded events, and the alert log stay readable),
// and flushes undecided tail-sampled trace trees so Tr.Spans() is
// complete. Call it before Run on a system with telemetry enabled;
// RunUntil needs no such help (but call Tr.FlushTail before reading spans
// from a tail-sampled run).
func (s *System) StopTelemetry() {
	s.Sampler.Stop()
	s.Watchdog.Stop()
	s.SLO.Stop()
	s.Tr.FlushTail()
}

// buildStacks layers kernel/datalink/transport onto every board and wires
// the observability layer (span tracer and metrics registry) through every
// component that supports it.
func buildStacks(eng *sim.Engine, board *obs.FlightRecorder, net *topo.Network, p Params) *System {
	s := &System{Eng: eng, Board: board, Net: net, Params: p}
	if p.TraceSpans > 0 {
		s.Tr = trace.NewTracer(eng, p.TraceSpans)
		if len(p.SLO.Objectives) > 0 {
			s.Tr.EnableTailSampling(sloTailConfig(p.SLO))
		}
	}
	if p.Metrics {
		s.Reg = trace.NewRegistry(eng)
	}
	if p.FlightRecorder {
		s.FR = obs.NewFlightRecorder(eng, obs.DefaultFlightEvents)
	}
	if p.Flows {
		s.Flows = flow.NewTable(flow.DefaultTopK, func(b byte) string {
			return transport.Proto(b).String()
		})
	}
	if len(p.SLO.Objectives) > 0 {
		// The engine only keeps its params here; buildSLO arms it once
		// the rest of the system exists.
		s.SLO = slo.NewEngine(eng, p.SLO)
	}
	for _, h := range net.Hubs() {
		if p.HubCombining {
			h.EnableCombining(comb.Params{})
		}
		h.Instrument(s.Reg, s.FR)
	}
	router := topo.NewRouter(net, p.Routing)
	for _, b := range net.Boards() {
		k := kernel.New(b)
		k.SetInstrumentation(s.Tr, s.Reg, s.FR, s.Flows, s.SLO)
		dl := datalink.New(k, net, router)
		tp := transport.New(k, dl, p.Transport)
		s.CABs = append(s.CABs, &CABStack{Board: b, Kernel: k, DL: dl, TP: tp})
	}
	// Topology changes (links failed or restored, by the probe layer or an
	// operator) invalidate cached routes everywhere — and feed the
	// flight recorder's link-state timeline.
	net.OnChange(func(a, b int, up bool) {
		if up {
			s.FR.Note(obs.FLinkUp, "net", int64(a), int64(b))
		} else {
			s.FR.Note(obs.FLinkDown, "net", int64(a), int64(b))
		}
		for _, c := range s.CABs {
			c.DL.FlushRoutes()
		}
	})
	if p.Datalink.ProbeInterval > 0 {
		// One prober per HUB, hosted on the lowest-numbered CAB attached
		// to it (CAB ids ascend, so the first stack seen per hub wins).
		probed := make(map[int]bool)
		for _, c := range s.CABs {
			h := net.HubOf(c.Board.ID())
			if probed[h] {
				continue
			}
			probed[h] = true
			pr := datalink.NewProber(c.DL, p.Datalink)
			if pr.Edges() == 0 {
				continue
			}
			pr.Start()
			s.Probers = append(s.Probers, pr)
		}
	}
	buildTelemetry(s)
	return s
}

// CAB returns CAB stack i. An out-of-range index panics with a descriptive
// message (see the error contract in the nectar package documentation).
func (s *System) CAB(i int) *CABStack {
	if i < 0 || i >= len(s.CABs) {
		panic(fmt.Sprintf("nectar: CAB(%d) out of range: system has CABs 0..%d", i, len(s.CABs)-1))
	}
	return s.CABs[i]
}

// NumCABs returns the CAB count.
func (s *System) NumCABs() int { return len(s.CABs) }

// Run drives the simulation until no events remain.
func (s *System) Run() sim.Time { return s.Eng.Run() }

// RunUntil drives the simulation to time t.
func (s *System) RunUntil(t sim.Time) sim.Time { return s.Eng.RunUntil(t) }
