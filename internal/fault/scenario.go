package fault

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/hub"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// This file holds the scenarios the fault actions are run against: the
// named catalogue, the at-least-once message train and the train of
// collectives that must survive them, and the hot-spot scenario a
// congestion storm is observed through. cmd/nectar-sim -chaos and
// experiments S1, C1, C2, O2, O3 all call these; none of them carries a
// copy.

// Names lists the catalogue's scenarios in the order CI runs them.
func Names() []string {
	return []string{"linkflap", "corruption", "portstuck", "crash", "storm", "overload", "comb", "random"}
}

// Named builds the catalogue scenario name against sys: the faults hit the
// link between HUB 0 and HUB 1 (the first hop of corner-to-corner traffic
// on a mesh), CAB 0, or the last CAB, starting 2 ms in so a paced message
// train is already flowing. seed feeds the scenarios that draw random
// numbers; "random" is RandomScenario with four faults; "comb" is the flap
// a train of collectives is driven through, short enough to open and close
// inside a few of its rounds.
func Named(name string, seed int64, sys *core.System) (Scenario, error) {
	at := 2 * sim.Millisecond
	last := sys.NumCABs() - 1
	var a Action
	switch name {
	case "linkflap":
		a = LinkFlap{A: 0, B: 1, At: at, Duration: 15 * sim.Millisecond}
	case "corruption":
		a = CorruptBurst{A: 0, B: 1, At: at, Duration: 10 * sim.Millisecond, Rate: 0.05, Seed: seed}
	case "portstuck":
		port, ok := sys.Net.EdgePort(0, 1)
		if !ok {
			return Scenario{}, fmt.Errorf("no edge between HUB 0 and HUB 1")
		}
		a = PortStuck{Hub: 0, Port: port, At: at, Duration: 10 * sim.Millisecond}
	case "crash":
		a = CrashCAB{CAB: 0, At: 4 * sim.Millisecond, RebootAfter: 8 * sim.Millisecond}
	case "storm":
		a = CongestionStorm{Srcs: []int{1, 2}, Dst: last, At: at, Duration: 8 * sim.Millisecond, Size: 900}
	case "overload":
		a = OverloadStorm{Srcs: []int{1, 2}, Dst: last, At: at, Duration: 20 * sim.Millisecond,
			Class: transport.ClassBulk, Deadline: 500 * sim.Microsecond,
			Rate: 30000, Size: 2048, Outstanding: 128, Seed: seed}
	case "comb":
		a = LinkFlap{A: 0, B: 1, At: at, Duration: 1500 * sim.Microsecond}
	case "random":
		return RandomScenario(sys, seed, 4, 40*sim.Millisecond), nil
	default:
		return Scenario{}, fmt.Errorf("unknown chaos scenario %q", name)
	}
	return Scenario{Name: name, Actions: []Action{a}}, nil
}

// drainStorm registers a sink on stack's StormBox that consumes storm
// datagrams as they arrive, so a CongestionStorm keeps its pressure on the
// network instead of dying in mailbox drops.
func drainStorm(stack *core.CABStack) {
	sink := stack.Kernel.NewMailbox("storm-sink", 8<<20)
	stack.TP.Register(StormBox, sink)
	stack.Kernel.SpawnDaemon("storm-sink", func(th *kernel.Thread) {
		for {
			sink.Release(sink.Get(th))
		}
	})
}

// Train is an at-least-once message train: Msgs 64-byte requests from CAB
// From to CAB To, one per millisecond so the train spans a fault window,
// each carrying its sequence number and retried with a fresh request every
// 500 us until the echo comes back. Recovery is never the application's
// job; it only retries.
type Train struct {
	From, To int
	Msgs     int
	Opts     transport.SendOpts
}

// TrainOutcome is filled in as the train runs.
type TrainOutcome struct {
	Delivered  int              // distinct messages accepted at the receiver
	Duplicates int              // redundant deliveries suppressed by sequence number
	DoneAt     sim.Time         // when the last message was acknowledged; 0 if never
	Latency    *trace.Histogram // first send to acknowledgement, per message
}

// trainBox is the train server's mailbox number.
const trainBox = 9

// TrainOptions is the system a train is run on: metrics, the automatic
// detection and recovery stack (link probing, peer heartbeats), and a 2 ms
// request timeout, so the client's retry loop — not one request's
// retransmission schedule — is what rides out a fault.
func TrainOptions() []core.Option {
	return []core.Option{core.WithMetrics(), core.WithFaultRecovery(), func(p *core.Params) {
		p.Transport.ReqTimeout = 2 * sim.Millisecond
	}}
}

// StartTrain spawns the train's echo server and client. The server dedups
// by sequence number: a response lost to a fault makes the client retry a
// request the server already executed and aged out of its response cache
// (or re-executed after a crash wiped the cache), and such duplicates are
// acknowledged without being counted twice.
func StartTrain(sys *core.System, t Train) *TrainOutcome {
	out := &TrainOutcome{Latency: trace.NewHistogram("train message latency")}

	seen := make(map[uint32]bool)
	rx := sys.CAB(t.To)
	mb := rx.Kernel.NewMailbox("train-server", 512*1024)
	rx.TP.Register(trainBox, mb)
	rx.Kernel.SpawnDaemon("train-server", func(th *kernel.Thread) {
		for {
			req := mb.Get(th)
			seq := binary.BigEndian.Uint32(req.Bytes())
			if seen[seq] {
				out.Duplicates++
			} else {
				seen[seq] = true
				out.Delivered++
			}
			rx.TP.Respond(th, req, req.Bytes()[:4])
			mb.Release(req)
		}
	})

	tx := sys.CAB(t.From)
	tx.Kernel.Spawn("train-client", func(th *kernel.Thread) {
		body := make([]byte, 64)
		for i := 0; i < t.Msgs; i++ {
			binary.BigEndian.PutUint32(body, uint32(i))
			start := th.Proc().Now()
			for {
				resp, err := tx.TP.RequestOpts(th, t.To, trainBox, 1, body, t.Opts)
				if err == nil && binary.BigEndian.Uint32(resp) == uint32(i) {
					break
				}
				th.Sleep(500 * sim.Microsecond)
			}
			out.Latency.Add(th.Proc().Now() - start)
			th.Sleep(sim.Millisecond)
		}
		out.DoneAt = th.Proc().Now()
	})
	return out
}

// CollTrain is a train of collectives for a fault to land in: every CAB of
// the system joins one group forced onto algorithm Algo, and each member
// runs Iters rounds, one per 500 us — an allreduce of Lanes int64 lanes
// whose sum must come back exact, then a barrier. A collective that loses
// a contributor to the fault must retry or fall back without
// double-counting.
type CollTrain struct {
	Algo         string
	Iters, Lanes int
}

// CollTrainOutcome is filled in as the train runs: per rank, why it has
// not (yet) finished its rounds with every result exact.
type CollTrainOutcome struct {
	errs []error
}

// StartCollTrain builds the group and spawns its members.
func StartCollTrain(sys *core.System, t CollTrain) *CollTrainOutcome {
	n := sys.NumCABs()
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	g := coll.NewGroup(sys, 1, members, coll.WithAlgorithm(t.Algo), coll.WithMaxRetries(16))
	out := &CollTrainOutcome{errs: make([]error, n)}
	rankSum := int64(n) * int64(n+1) / 2
	for r := 0; r < n; r++ {
		r := r
		c := g.Member(r)
		out.errs[r] = errors.New("never completed")
		sys.CAB(g.CABOf(r)).Kernel.Spawn(fmt.Sprintf("coll-train-%d", r), func(th *kernel.Thread) {
			in := make([]int64, t.Lanes)
			for i := 0; i < t.Iters; i++ {
				th.Sleep(500 * sim.Microsecond)
				for j := range in {
					in[j] = int64((r + 1) * (i + 1))
				}
				res, err := c.Allreduce(th, coll.SumInt64, coll.Int64Bytes(in))
				if err != nil {
					out.errs[r] = fmt.Errorf("iter %d allreduce: %w", i, err)
					return
				}
				for _, got := range coll.BytesInt64(res) {
					if want := rankSum * int64(i+1); got != want {
						out.errs[r] = fmt.Errorf("iter %d: inexact sum %d, want %d", i, got, want)
						return
					}
				}
				if err := c.Barrier(th); err != nil {
					out.errs[r] = fmt.Errorf("iter %d barrier: %w", i, err)
					return
				}
			}
			out.errs[r] = nil
		})
	}
	return out
}

// Failures lists, after the run, every rank that got a wrong or failed
// collective or never finished its rounds; empty means the train survived.
func (o *CollTrainOutcome) Failures() []error {
	var fails []error
	for r, err := range o.errs {
		if err != nil {
			fails = append(fails, fmt.Errorf("rank %d: %w", r, err))
		}
	}
	return fails
}

// HotSpot is the hot-spot scenario: a client paces one 64-byte request per
// Every at an echo server on CAB Victim while, from At for Duration, the
// CABs in Srcs blast Size-byte datagrams at the same CAB, so all contention
// converges on one HUB output register. With Duration zero there is no
// storm and only the request traffic runs.
type HotSpot struct {
	Client, Victim int
	Every          sim.Time
	Srcs           []int
	At, Duration   sim.Time
	Size           int
}

// HotSpotRun is filled in as the scenario runs.
type HotSpotRun struct {
	Requests int
	// Digest folds each request's index, latency and error state: any
	// timing perturbation (by an armed instrument, say) changes it.
	Digest trace.Digest

	sys    *core.System
	sc     HotSpot
	roots  []*trace.Span
	byRoot map[*trace.Span][]*trace.Span
}

// hotSpotBox is the request server's mailbox number.
const hotSpotBox = 0x42

// StartHotSpot spawns the storm sink (when there is a storm), the request
// server and the paced client, and schedules the storm.
func StartHotSpot(sys *core.System, sc HotSpot) *HotSpotRun {
	run := &HotSpotRun{Digest: trace.NewDigest(), sys: sys, sc: sc}
	victim := sys.CAB(sc.Victim)
	if sc.Duration > 0 {
		drainStorm(victim)
	}

	srv := victim.Kernel.NewMailbox("hotspot-server", 1<<20)
	victim.TP.Register(hotSpotBox, srv)
	victim.Kernel.SpawnDaemon("hotspot-server", func(th *kernel.Thread) {
		for {
			m := srv.Get(th)
			_ = victim.TP.Respond(th, m, m.Bytes()[:8])
			srv.Release(m)
		}
	})

	client := sys.CAB(sc.Client)
	client.Kernel.SpawnDaemon("hotspot-client", func(th *kernel.Thread) {
		payload := make([]byte, 64)
		for i := 0; ; i++ {
			next := sim.Time(i) * sc.Every
			if now := sys.Eng.Now(); next > now {
				th.Sleep(next - now)
			}
			t0 := sys.Eng.Now()
			_, err := client.TP.Request(th, sc.Victim, hotSpotBox, 1, payload)
			lat := sys.Eng.Now() - t0
			run.Requests++
			run.Digest.Uint64(uint64(i))
			run.Digest.Uint64(uint64(lat))
			if err != nil {
				run.Digest.Uint64(1)
			} else {
				run.Digest.Uint64(0)
			}
		}
	})

	if sc.Duration > 0 {
		New(sys, Scenario{Name: "hotspot-storm", Actions: []Action{
			CongestionStorm{Srcs: sc.Srcs, Dst: sc.Victim, At: sc.At, Duration: sc.Duration, Size: sc.Size},
		}}).Schedule()
	}
	return run
}

// windowRoots selects, once, the client's traced request messages that
// began inside the storm window (any time, when there is no storm): the
// root "msg" spans originating at the client board.
func (r *HotSpotRun) windowRoots() {
	if r.byRoot != nil {
		return
	}
	r.byRoot = trace.GroupByRoot(r.sys.Tr.Spans())
	client := r.sys.CAB(r.sc.Client).Board.Name()
	storm := r.sc.Duration > 0
	for _, root := range r.sys.Tr.Roots() {
		if root.Comp() != client || root.Name() != "msg" || !root.Ended() {
			continue
		}
		if storm && (root.Start() < r.sc.At || root.Start() > r.sc.At+r.sc.Duration) {
			continue
		}
		r.roots = append(r.roots, root)
	}
}

// CriticalPath decomposes the latency of the q-quantile request of the
// storm window hop by hop (nil if no traced request completed in it). Call
// after the run, on a system built with span tracing.
func (r *HotSpotRun) CriticalPath(q float64) *trace.PathBreakdown {
	r.windowRoots()
	root := trace.QuantileRoot(r.roots, q)
	return trace.CriticalPathIn(r.byRoot[root], root, hub.TransferLatency)
}
