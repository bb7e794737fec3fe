package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// Topology describes the network shape passed to New: a value wrapper
// around the declarative topo.Spec. Build one with SingleHub, Mesh, Line,
// Torus, Torus3D, or FatTree; the zero Topology is invalid. Validation
// happens in New, against the (possibly option-overridden) per-HUB port
// count.
type Topology struct {
	spec topo.Spec
}

// SingleHub describes the paper's Figure 2 system: one HUB with nCABs CABs.
func SingleHub(nCABs int) Topology {
	return Topology{spec: topo.Single(nCABs)}
}

// Mesh describes the paper's Figure 4 system: a rows x cols 2-D mesh of HUB
// clusters with cabsPerHub CABs each.
func Mesh(rows, cols, cabsPerHub int) Topology {
	return Topology{spec: topo.Mesh(rows, cols, cabsPerHub)}
}

// Line describes a chain of nHubs HUB clusters with cabsPerHub CABs each
// (useful for hop-count studies).
func Line(nHubs, cabsPerHub int) Topology {
	return Topology{spec: topo.Chain(nHubs, cabsPerHub)}
}

// Torus describes a rows x cols 2-D torus of HUB clusters: a mesh whose
// rows and columns close into rings.
func Torus(rows, cols, cabsPerHub int) Topology {
	return Topology{spec: topo.Torus(rows, cols, cabsPerHub)}
}

// Torus3D describes an x by y by z 3-D torus of HUB clusters, the scale-out
// shape for hundreds of HUBs.
func Torus3D(x, y, z, cabsPerHub int) Topology {
	return Topology{spec: topo.Torus3D(x, y, z, cabsPerHub)}
}

// FatTree describes a two-level fat tree: leafHubs leaf HUBs each wired to
// every one of spineHubs spine HUBs, with cabsPerLeaf CABs per leaf.
func FatTree(leafHubs, spineHubs, cabsPerLeaf int) Topology {
	return Topology{spec: topo.FatTree(leafHubs, spineHubs, cabsPerLeaf)}
}

// Spec returns the underlying declarative shape.
func (t Topology) Spec() topo.Spec { return t.spec }

// String renders the topology for error messages and logs.
func (t Topology) String() string { return t.spec.String() }

// NumCABs returns the CAB count the topology will produce.
func (t Topology) NumCABs() int { return t.spec.NumCABs() }

// validate panics with a descriptive message when the topology cannot be
// built with the given parameters. See the error contract in package nectar.
func (t Topology) validate(p Params) {
	s := t.spec
	ports := p.Topo.HubPorts
	bad := func(format string, args ...interface{}) {
		panic(fmt.Sprintf("nectar: invalid topology %v: %s", t, fmt.Sprintf(format, args...)))
	}
	switch s.Kind {
	case topo.KindSingleHub:
		if s.CABsPerHub < 1 {
			bad("need at least 1 CAB, got %d", s.CABsPerHub)
		}
		if s.CABsPerHub > ports {
			bad("%d CABs exceed the %d ports of a HUB (raise Params.Topo.HubPorts)", s.CABsPerHub, ports)
		}
		return
	case topo.KindMesh, topo.KindTorus:
		if s.Y < 1 || s.X < 1 {
			bad("mesh dimensions must be at least 1x1, got %dx%d", s.Y, s.X)
		}
		if s.CABsPerHub < 1 {
			bad("need at least 1 CAB per HUB, got %d", s.CABsPerHub)
		}
	case topo.KindTorus3D:
		if s.X < 1 || s.Y < 1 || s.Z < 1 {
			bad("torus dimensions must be at least 1x1x1, got %dx%dx%d", s.X, s.Y, s.Z)
		}
		if s.CABsPerHub < 1 {
			bad("need at least 1 CAB per HUB, got %d", s.CABsPerHub)
		}
	case topo.KindLine:
		if s.X < 1 {
			bad("need at least 1 HUB, got %d", s.X)
		}
		if s.CABsPerHub < 1 {
			bad("need at least 1 CAB per HUB, got %d", s.CABsPerHub)
		}
	case topo.KindFatTree:
		if s.X < 1 {
			bad("need at least 1 leaf HUB, got %d", s.X)
		}
		if s.Spines < 1 {
			bad("need at least 1 spine HUB, got %d", s.Spines)
		}
		if s.CABsPerHub < 1 {
			bad("need at least 1 CAB per leaf, got %d", s.CABsPerHub)
		}
	default:
		bad("use SingleHub, Mesh, Line, Torus, Torus3D, or FatTree to construct a Topology")
	}
	if n := s.NumHubs(); n > topo.MaxHubs {
		bad("%d HUBs exceed the %d-HUB limit (topo.Hop.HubID is one byte and ID 0 is reserved)", n, topo.MaxHubs)
	}
	if need := s.MinHubPorts(); need > ports {
		bad("the busiest HUB needs %d ports (CABs + inter-HUB links), but HUBs have %d (raise Params.Topo.HubPorts)",
			need, ports)
	}
}

// Option configures a System under construction. Options apply in argument
// order, so later options win; WithParams replaces the entire parameter set
// and is normally the first option when used at all.
type Option func(*Params)

// WithParams replaces the whole parameter set (zero-valued sub-parameters
// are still filled with defaults). Use it to carry a tuned Params into New;
// options after it refine the replaced set.
func WithParams(p Params) Option {
	return func(dst *Params) { *dst = p }
}

// WithRouting selects the route-computation policy every CAB's datalink
// uses: topo.PolicyBFS (the deterministic default) or topo.PolicyAdaptive
// (deadlock-free minimal-adaptive routing by downstream queue depth, with
// dimension-order escape paths). The empty policy selects BFS; an unknown
// policy panics in New with the "nectar: ..." contract.
func WithRouting(policy topo.Policy) Option {
	return func(p *Params) { p.Routing = policy }
}

// validateRouting rejects unknown routing policies before any stack is
// built (NewRouter would panic later and deeper otherwise).
func validateRouting(p Params) {
	switch p.Routing {
	case "", topo.PolicyBFS, topo.PolicyAdaptive:
	default:
		panic(fmt.Sprintf("nectar: unknown routing policy %q: use %q or %q",
			p.Routing, topo.PolicyBFS, topo.PolicyAdaptive))
	}
}

// DefaultTraceSpans is the retained-span bound WithTraceSpans enables.
const DefaultTraceSpans = 4096

// WithTraceSpans enables end-to-end message span tracing (System.Tr),
// retaining up to DefaultTraceSpans spans.
func WithTraceSpans() Option {
	return func(p *Params) {
		if p.TraceSpans == 0 {
			p.TraceSpans = DefaultTraceSpans
		}
	}
}

// WithMetrics enables the metrics registry (System.Reg): every layer
// auto-registers its counters, gauges, and histograms.
func WithMetrics() Option {
	return func(p *Params) { p.Metrics = true }
}

// WithFaultRecovery arms the automatic failure detection and recovery
// stack: per-HUB link probing (failed fibers are detected and routed
// around), transport heartbeats (dead peers fail fast with ErrPeerDead and
// are revived on return), and bounded retransmission backoff. Probing
// generates simulation events forever — drive such systems with RunUntil,
// or call StopProbers before Run.
func WithFaultRecovery() Option {
	return func(p *Params) {
		if p.Datalink.ProbeInterval == 0 {
			p.Datalink.ProbeInterval = 200 * sim.Microsecond
		}
		if p.Transport.HeartbeatInterval == 0 {
			p.Transport.HeartbeatInterval = 300 * sim.Microsecond
		}
	}
}

// DefaultSamplerPeriod is the sampling period of the sampler WithSampler
// enables.
const DefaultSamplerPeriod = 20 * sim.Microsecond

// WithSampler enables the continuous-telemetry sampler (System.Sampler),
// sampling every DefaultSamplerPeriod of simulated time. An armed sampler
// generates events forever — drive the system with RunUntil or call
// StopTelemetry before Run.
func WithSampler() Option {
	return func(p *Params) { p.Sampler = true }
}

// WithFlightRecorder enables the flight recorder (System.FR): every layer
// notes its structured events (sends, drops, link transitions, RTO
// expiries, crashes) into a bounded ring for post-mortem dumps.
func WithFlightRecorder() Option {
	return func(p *Params) { p.FlightRecorder = true }
}

// DefaultStallCheck is the check interval of the watchdog
// WithStallWatchdog enables.
const DefaultStallCheck = 5 * sim.Millisecond

// WithStallWatchdog enables the virtual-time stall watchdog
// (System.Watchdog): if transport operations are in flight but none
// complete over a DefaultStallCheck interval, it dumps the flight recorder
// (or calls System.OnStall). Like the sampler it generates events forever
// — use RunUntil or StopTelemetry.
func WithStallWatchdog() Option {
	return func(p *Params) { p.StallWatchdog = true }
}

// WithOverloadControl arms the transport overload-control subsystem:
// deadline propagation checked at every queueing point, priority classes
// with weighted-deficit scheduling of the CAB send queue, sojourn-time
// admission control shedding lowest-class-first with deterministic
// ErrOverload fast-rejects, and per-peer circuit breakers with jittered
// half-open re-admission.
func WithOverloadControl() Option {
	return func(p *Params) { p.Transport.Overload = true }
}

// WithHubCombining arms the in-network combining engine on every HUB:
// reduce, allreduce, and barrier merge their operands at the switch
// (fetch-and-add / reduce-on-the-wire / barrier ack aggregation) instead
// of at the endpoints, and the collective layer auto-selects HUB combining
// where a group's members share combining-capable HUBs — hierarchically on
// multi-HUB meshes (combine within each HUB, exchange between per-HUB
// leaders, distribute back down). Disabled systems carry no combining
// state and replay digest-identically to builds without the feature.
func WithHubCombining() Option {
	return func(p *Params) { p.HubCombining = true }
}

// WithTelemetry arms the whole continuous-telemetry plane at defaults:
// sampler, flight recorder, and stall watchdog.
func WithTelemetry() Option {
	return func(p *Params) {
		WithSampler()(p)
		WithFlightRecorder()(p)
		WithStallWatchdog()(p)
	}
}

// WithFlows enables the flow observatory (System.Flows): NetFlow-style
// per-(src CAB, dst CAB, protocol) flow records accumulated on the
// datalink/transport hot paths, with a space-saving top-k sketch of
// flow.DefaultTopK entries for heavy-hitter detection. Accounting only
// mutates counters — an observed run is byte-identical to an unobserved
// one.
func WithFlows() Option {
	return func(p *Params) { p.Flows = true }
}

// WithObservatory arms the full congestion observatory: flow records with
// the heavy-hitter sketch (WithFlows), the virtual-time sampler for
// per-port queue-depth/utilization/drop series (WithSampler), and the
// flight recorder for congestion-onset events (WithFlightRecorder).
// Combine with WithTraceSpans for critical-path latency attribution.
func WithObservatory() Option {
	return func(p *Params) {
		WithFlows()(p)
		WithSampler()(p)
		WithFlightRecorder()(p)
	}
}

// WithSLO arms the service-level-objective engine (System.SLO) with the
// declared objectives and the supporting evidence plane: the flight
// recorder (alert notes), the flow observatory (bundle top-k flows), span
// tracing, and tail-based span sampling derived from the objectives — root
// message spans whose protocol is covered by an objective are retained
// when their latency reaches the objective's bound (the tightest bound
// wins per protocol), plus a 1-in-DefaultTailHeadEvery head sample so the
// baseline stays observable.
func WithSLO(sp slo.Params) Option {
	return func(p *Params) {
		p.SLO = sp
		WithTraceSpans()(p)
		WithFlightRecorder()(p)
		WithFlows()(p)
	}
}

// validateSLO rejects malformed SLO parameters with the descriptive
// "nectar: ..." panic contract. Zero stays valid everywhere (the disabled
// or use-the-default sentinel); negatives and out-of-range fractions are
// caller bugs.
func validateSLO(p Params) {
	seen := make(map[string]bool)
	for i, o := range p.SLO.Objectives {
		if o.Name == "" {
			panic(fmt.Sprintf("nectar: SLO objective %d has no Name", i))
		}
		if seen[o.Name] {
			panic(fmt.Sprintf("nectar: duplicate SLO objective name %q", o.Name))
		}
		seen[o.Name] = true
		if o.Kind >= slo.NumKinds {
			panic(fmt.Sprintf("nectar: SLO objective %q has unknown kind %d", o.Name, o.Kind))
		}
		if o.Class != slo.AnyClass && int(o.Class) >= transport.NumClasses {
			panic(fmt.Sprintf("nectar: SLO objective %q class %d out of range (use a transport class or slo.AnyClass)", o.Name, o.Class))
		}
		if o.LatencyBound <= 0 {
			panic(fmt.Sprintf("nectar: SLO objective %q needs a positive LatencyBound, got %v", o.Name, o.LatencyBound))
		}
		if o.Quantile < 0 || o.Quantile >= 1 {
			panic(fmt.Sprintf("nectar: SLO objective %q Quantile %v outside [0, 1) (0 selects 0.99)", o.Name, o.Quantile))
		}
		if o.SuccessRate < 0 || o.SuccessRate >= 1 {
			panic(fmt.Sprintf("nectar: SLO objective %q SuccessRate %v outside [0, 1) (0 selects 0.999)", o.Name, o.SuccessRate))
		}
		if o.Window < 0 {
			panic(fmt.Sprintf("nectar: SLO objective %q Window %v is negative (0 selects the default)", o.Name, o.Window))
		}
	}
}

// validateTelemetry rejects malformed telemetry parameters with the
// descriptive "nectar: ..." panic contract. Zero stays valid everywhere —
// it is the documented "disabled" sentinel for each of these knobs — but a
// negative value is always a caller bug that would otherwise silently
// disable the instrument.
func validateTelemetry(p Params) {
	if p.TraceSpans < 0 {
		panic(fmt.Sprintf("nectar: TraceSpans %d is negative (0 disables span tracing)", p.TraceSpans))
	}
	if p.RecorderLimit < 0 {
		panic(fmt.Sprintf("nectar: RecorderLimit %d is negative (0 disables the instrumentation board)", p.RecorderLimit))
	}
}

// New assembles a Nectar system: the topology's HUBs and fibers, and a full
// software stack (kernel, datalink, transport) on every CAB. Parameters
// start at DefaultParams and are refined by the options in order.
//
// New validates its arguments and panics with a descriptive "nectar: ..."
// message when the topology is malformed or does not fit the HUB port
// count; see the error contract in the nectar package documentation.
func New(t Topology, opts ...Option) *System {
	p := DefaultParams()
	for _, opt := range opts {
		opt(&p)
	}
	p = p.normalize()
	t.validate(p)
	validateRouting(p)
	validateTelemetry(p)
	validateSLO(p)
	eng := sim.NewEngine()
	var board *obs.FlightRecorder
	if p.RecorderLimit > 0 {
		board = obs.NewFlightRecorder(eng, p.RecorderLimit)
	}
	net := t.spec.Build(eng, board, topo.WithOptions(p.Topo))
	return buildStacks(eng, board, net, p)
}
