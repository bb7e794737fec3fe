// Package nectar is a complete, simulation-backed reproduction of the
// Nectar system — "The Design of Nectar: A Network Backplane for
// Heterogeneous Multicomputers" (Arnould, Bitz, Cooper, Kung, Sansom,
// Steenkiste; ASPLOS 1989).
//
// The package is the public facade over the full implementation:
//
//   - the HUB crossbar switch with its hardware datalink command set;
//   - fiber links, topologies (single HUB, clusters, 2-D meshes, tori,
//     3-D tori, fat trees) and routing — deterministic BFS shortest-path
//     and deadlock-free minimal-adaptive policies — including multicast
//     trees;
//   - the CAB communication processor: CPU, DMA, protected memory,
//     hardware checksum and timers;
//   - the CAB kernel (threads, mailboxes), the datalink (circuit and
//     packet switching built from HUB commands), and the three transport
//     protocols (datagram, byte stream, request-response);
//   - nodes with the three CAB-node interfaces (shared memory, socket,
//     network driver), plus a 10 Mb/s Ethernet baseline for comparison;
//   - Nectarine, the task/buffer/message programming layer, with an iPSC
//     hypercube compatibility library on top;
//   - a CAB-offloaded collective-communication subsystem (barrier,
//     broadcast, reductions, gather/scatter) that rides the HUB's
//     hardware multicast where the topology allows;
//   - the paper's applications (vision pipeline, parallel production
//     system, simulated annealing) and the full experiment harness that
//     regenerates every quantitative claim in the paper.
//
// Quick start:
//
//	sys := nectar.New(nectar.SingleHub(2))
//	rx := sys.CAB(1)
//	mb := rx.Kernel.NewMailbox("in", 64<<10)
//	rx.TP.Register(1, mb)
//	rx.Kernel.Spawn("rx", func(th *nectar.Thread) {
//	    msg := mb.Get(th)
//	    fmt.Printf("got %d bytes at %v\n", msg.Len, msg.Arrived)
//	    mb.Release(msg)
//	})
//	sys.CAB(0).Kernel.Spawn("tx", func(th *nectar.Thread) {
//	    sys.CAB(0).TP.SendDatagram(th, 1, 1, 0, []byte("hello"))
//	})
//	sys.Run()
//
// New is the single construction path: it takes a Topology value built by
// one of the shape constructors — SingleHub, Mesh, Line, Torus, Torus3D,
// or FatTree — plus functional options, and there is no other way to
// assemble a System. All shapes share one options struct (ports per HUB,
// error model) rather than per-shape positional parameters. WithRouting
// selects the routing policy (BFS shortest-path by default; deadlock-free
// adaptive routing on request), WithHubCombining arms in-network
// combining, and WithOverloadControl arms priority classes and admission
// control. A collective group picks its algorithm per operation, or takes
// one forced per group (coll.WithAlgorithm). The telemetry options
// (metrics, span tracing, the observability plane, SLOs) and fault
// recovery live in internal/core, beside the parameter set.
//
// # Error contract
//
// Constructors and accessors distinguish programmer errors from runtime
// conditions. Programmer errors — a malformed topology (zero CABs, mesh
// that does not fit the HUB port count), or an out-of-range System.CAB
// index — panic with a descriptive message prefixed "nectar: ". Runtime
// conditions that correct protocol code must handle — peer death, checksum
// mismatches, mailbox overflow — are returned as error values (or
// documented drop behavior) by the layer that detects them.
//
// Everything executes in simulated time on a deterministic discrete-event
// engine: protocol code is real (framing, checksums, retransmission,
// crossbar arbitration, flow control), only the clock is virtual. Hardware
// constants are the paper's: 70 ns HUB cycles, 700 ns connection setup,
// 100 Mb/s fibers, 10 MB/s VME, 12 us thread switches.
package nectar

import (
	"repro/internal/apps"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ipsc"
	"repro/internal/kernel"
	"repro/internal/nectarine"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// Time is simulated time in nanoseconds.
type Time = sim.Time

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// System is an assembled Nectar multicomputer: HUBs, fibers, and a full
// software stack (kernel, datalink, transport) on every CAB.
type System = core.System

// CABStack is one CAB's hardware board plus kernel, datalink and transport.
type CABStack = core.CABStack

// Thread is a CAB kernel thread.
type Thread = kernel.Thread

// Node is a Nectar node (a Sun/Warp behind a VME bus and a CAB).
type Node = node.Node

// App is a Nectarine application; Task and TaskCtx are its tasks.
type App = nectarine.App

// TaskCtx is the execution context of a Nectarine task.
type TaskCtx = nectarine.TaskCtx

// Buffer is a Nectarine message buffer; typed (Words) buffers get
// representation conversion between heterogeneous machines.
type Buffer = nectarine.Buffer

// Bytes wraps raw data in a Buffer.
func Bytes(data []byte) Buffer { return nectarine.Bytes(data) }

// Words builds a typed 32-bit buffer in the sender's byte order.
func Words(vals []uint32, bigEndian bool) Buffer { return nectarine.Words(vals, bigEndian) }

// Topology describes the network shape passed to New; build one with
// SingleHub, Mesh, Line, Torus, Torus3D, or FatTree.
type Topology = core.Topology

// Option configures a System under construction; options apply in order.
type Option = core.Option

// SingleHub describes the paper's Figure 2 system: one HUB with nCABs CABs.
func SingleHub(nCABs int) Topology { return core.SingleHub(nCABs) }

// Mesh describes the paper's Figure 4 system: a rows x cols 2-D mesh of
// HUB clusters with cabsPerHub CABs each.
func Mesh(rows, cols, cabsPerHub int) Topology { return core.Mesh(rows, cols, cabsPerHub) }

// Line describes a chain of nHubs HUB clusters with cabsPerHub CABs each
// (useful for hop-count studies).
func Line(nHubs, cabsPerHub int) Topology { return core.Line(nHubs, cabsPerHub) }

// Torus describes a rows x cols 2-D torus of HUB clusters: a mesh whose
// rows and columns close into rings.
func Torus(rows, cols, cabsPerHub int) Topology { return core.Torus(rows, cols, cabsPerHub) }

// Torus3D describes an x by y by z 3-D torus of HUB clusters, the
// scale-out shape for hundreds of HUBs.
func Torus3D(x, y, z, cabsPerHub int) Topology { return core.Torus3D(x, y, z, cabsPerHub) }

// FatTree describes a two-level fat tree: leafHubs leaf HUBs each wired to
// every one of spineHubs spine HUBs, with cabsPerLeaf CABs per leaf.
func FatTree(leafHubs, spineHubs, cabsPerLeaf int) Topology {
	return core.FatTree(leafHubs, spineHubs, cabsPerLeaf)
}

// RoutingPolicy names a route-computation strategy for WithRouting.
type RoutingPolicy = topo.Policy

// Routing policies: deterministic BFS shortest-path (the default) and
// deadlock-free minimal-adaptive routing by downstream queue depth with
// dimension-order escape paths.
const (
	RoutingBFS      = topo.PolicyBFS
	RoutingAdaptive = topo.PolicyAdaptive
)

// WithRouting selects the routing policy every CAB's datalink uses. The
// route cache, FlushRoutes, and fault-recovery route flushes behave
// identically under every policy.
func WithRouting(policy RoutingPolicy) Option { return core.WithRouting(policy) }

// WithHubCombining arms the in-network combining engine on every HUB:
// reduce, allreduce, and barrier merge their operands at the switch
// (fetch-and-add / reduce-on-the-wire / barrier ack aggregation) instead
// of at the endpoints, and the collective layer auto-selects HUB
// combining where it applies — hierarchically on multi-HUB meshes.
// Disabled systems carry no combining state and replay digest-identically
// to builds without the feature.
func WithHubCombining() Option { return core.WithHubCombining() }

// Overload control (default-off). When armed with WithOverloadControl,
// every transport operation may carry a priority class and a deadline
// (the Opts variants of Request/StreamSend/VTransact): the CAB send queue
// is weighted-deficit scheduled by class, deadlines are enforced at every
// queueing point, sojourn-time admission control sheds lowest-class-first
// with a deterministic fast-reject, and peers that keep rejecting trip a
// circuit breaker with jittered half-open recovery.
type (
	// Class is a transport priority class (ClassNormal, ClassCritical,
	// ClassBulk).
	Class = transport.Class
	// SendOpts carries a per-operation class and deadline into the
	// classed transport entry points.
	SendOpts = transport.SendOpts
)

// Transport priority classes. ClassNormal is the zero value: unclassed
// sends are normal, and the wire format is unchanged when the subsystem is
// off.
const (
	ClassNormal   = transport.ClassNormal
	ClassCritical = transport.ClassCritical
	ClassBulk     = transport.ClassBulk
)

// WithOverloadControl arms the overload-control subsystem: priority
// classes, deadline propagation, admission control, and circuit breaking.
func WithOverloadControl() Option { return core.WithOverloadControl() }

// New assembles a Nectar system from a topology and options — the only
// construction path. It panics with a descriptive "nectar: ..." message
// when the topology is malformed or does not fit the HUB port count (see
// the error contract above).
func New(t Topology, opts ...Option) *System { return core.New(t, opts...) }

// NewNode attaches a node to a CAB via a VME bus.
func NewNode(stack *CABStack, name string) *Node {
	return node.New(stack, name, node.DefaultParams())
}

// NewApp creates a Nectarine application on a system.
func NewApp(sys *System) *App { return nectarine.NewApp(sys) }

// RunIPSC runs an iPSC hypercube program with nprocs processes on the
// system (see internal/ipsc for the primitives).
func RunIPSC(sys *System, nprocs int, body func(c *ipsc.Ctx)) Time {
	return ipsc.Run(sys, nprocs, body)
}

// Experiments returns the full paper-reproduction experiment suite
// (E1-E12, F1); each returns printable tables and a pass flag.
func Experiments() []exp.Experiment { return exp.All() }

// CollGroup is a collective group of the CAB-offloaded collective
// subsystem (internal/coll): barrier, broadcast, reductions, and the
// gather/scatter family over the HUB hardware multicast, with a
// deterministic rank per member CAB.
type CollGroup = coll.Group

// NewCollGroup declares collective group id over the given member CABs;
// drive the operations from kernel threads via Group.Member. Nectarine
// tasks use App.NewCollective instead.
func NewCollGroup(sys *System, id int, cabs []int, opts ...coll.Option) *CollGroup {
	return coll.NewGroup(sys, id, cabs, opts...)
}

// SumInt64Op is the int64 sum reduction for Reduce/Allreduce (8-byte
// little-endian lanes).
var SumInt64Op = coll.SumInt64

// Lane converters between int64 slices and the byte payloads the
// collective operations move.
var (
	Int64Bytes = coll.Int64Bytes
	BytesInt64 = coll.BytesInt64
)

// Application entry points (paper section 7).
var (
	// RunVision runs the Warp + distributed-spatial-database pipeline.
	RunVision = apps.RunVision
	// RunProduction runs the distributed-RETE production system.
	RunProduction = apps.RunProduction
	// RunAnnealing runs the iPSC simulated annealer.
	RunAnnealing = apps.RunAnnealing

	// DefaultVisionConfig is the vision pipeline's paper configuration.
	DefaultVisionConfig = apps.DefaultVisionConfig
)
