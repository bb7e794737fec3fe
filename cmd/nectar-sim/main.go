// nectar-sim is a flag-driven scenario runner: build a topology, run a
// message workload over a chosen transport, and print latency/throughput
// statistics plus per-layer counters.
//
// Examples:
//
//	nectar-sim -topo single -cabs 4 -msgs 100 -size 1024
//	nectar-sim -topo mesh -rows 3 -cols 3 -per 1 -transport stream -size 65536
//	nectar-sim -topo line -hubs 4 -per 1 -ber 1e-5 -transport stream
//	nectar-sim -chaos linkflap -seed 7
//	nectar-sim -chaos random -seed 42 -msgs 30
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fiber"
	"repro/internal/kernel"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: flags from args, the report on stdout,
// diagnostics on stderr, the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nectar-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topoKind  = fs.String("topo", "single", "topology: single | line | mesh")
		cabs      = fs.Int("cabs", 4, "CABs (single topology)")
		hubs      = fs.Int("hubs", 3, "HUBs (line topology)")
		rows      = fs.Int("rows", 2, "mesh rows")
		cols      = fs.Int("cols", 2, "mesh cols")
		per       = fs.Int("per", 2, "CABs per HUB (line/mesh)")
		transport = fs.String("transport", "datagram", "datagram | stream | reqresp")
		msgs      = fs.Int("msgs", 50, "messages per sender")
		size      = fs.Int("size", 256, "message size in bytes")
		ber       = fs.Float64("ber", 0, "fiber bit error rate (per byte)")
		senders   = fs.Int("senders", 1, "concurrent sending CABs (all target CAB 0)")
		chaos     = fs.String("chaos", "", "chaos scenario: linkflap | corruption | portstuck | crash | storm | overload | comb | random (runs a fault-injected mesh; exits 1 on any undelivered message, for overload on a critical-class SLO violation, or for comb on any inexact collective result)")
		seed      = fs.Int64("seed", 1, "chaos scenario seed (runs are byte-reproducible per seed)")
		dump      = fs.String("dump", "", "chaos only: also write the flight-recorder post-mortem to this file")
		sloOn     = fs.Bool("slo", false, "arm the SLO engine with a latency objective on the workload (see -slobound) and print status, burn rates, and the alert stream")
		sloBound  = fs.Duration("slobound", 500*time.Microsecond, "SLO latency bound for -slo")
		sloDump   = fs.String("slodump", "", "with -slo: write the first diagnosis bundle captured at alert time to this file as JSON")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{{"cabs", *cabs, 1}, {"hubs", *hubs, 1}, {"rows", *rows, 1}, {"cols", *cols, 1}, {"per", *per, 1},
		{"msgs", *msgs, 0}, {"size", *size, 0}, {"senders", *senders, 0}} {
		if f.val < f.min {
			fmt.Fprintf(stderr, "-%s %d: must be at least %d\n", f.name, f.val, f.min)
			return 2
		}
	}

	if *chaos == "comb" {
		return runCombChaos(stdout, stderr, *seed, *rows, *cols, *msgs, *dump)
	}
	if *chaos != "" {
		return runChaos(stdout, stderr, *chaos, *seed, *rows, *cols, *msgs, *dump)
	}
	switch *transport {
	case "datagram", "stream", "reqresp":
	default:
		fmt.Fprintf(stderr, "unknown transport %q\n", *transport)
		return 2
	}

	params := core.DefaultParams()
	if *ber > 0 {
		params.Topo.Errors = fiber.ErrorModel{BitErrorRate: *ber, Seed: 1}
	}

	opts := []core.Option{core.WithParams(params)}
	if *sloOn {
		// One objective per reliable operation kind at the declared bound;
		// only the kinds the workload exercises accumulate ops. Datagrams
		// are unreliable by contract and carry no objective.
		bound := sim.Time(sloBound.Nanoseconds())
		opts = append(opts, core.WithMetrics(), core.WithSLO(slo.Params{
			Objectives: []slo.Objective{
				{Name: "reqresp", Kind: slo.KindReqResp, Class: slo.AnyClass, LatencyBound: bound},
				{Name: "stream", Kind: slo.KindStream, Class: slo.AnyClass, LatencyBound: bound},
				{Name: "vmtp", Kind: slo.KindVMTP, Class: slo.AnyClass, LatencyBound: bound},
			},
		}))
		if *transport == "datagram" {
			fmt.Fprintln(stderr, "note: -slo observes reliable operations only; datagrams carry no objective (use -transport reqresp or stream)")
		}
	}

	var t core.Topology
	switch *topoKind {
	case "single":
		t = core.SingleHub(*cabs)
	case "line":
		t = core.Line(*hubs, *per)
	case "mesh":
		t = core.Mesh(*rows, *cols, *per)
	default:
		fmt.Fprintf(stderr, "unknown topology %q\n", *topoKind)
		return 2
	}
	sys, err := build(t, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	n := sys.NumCABs()
	if *senders >= n {
		*senders = n - 1
	}

	fmt.Fprintf(stdout, "topology %s: %d HUBs, %d CABs; %d sender(s) -> CAB 0, %d x %dB via %s\n",
		*topoKind, len(sys.Net.Hubs()), n, *senders, *msgs, *size, *transport)

	// Receiver on CAB 0 (not used by reqresp, which runs a server).
	rx := sys.CAB(0)
	lat := trace.NewHistogram("delivery latency")
	delivered := 0
	if *transport != "reqresp" {
		mb := rx.Kernel.NewMailbox("in", 8<<20)
		rx.TP.Register(1, mb)
		rx.Kernel.SpawnDaemon("rx", func(th *kernel.Thread) {
			for {
				msg := mb.Get(th)
				delivered++
				mb.Release(msg)
			}
		})
	} else {
		srv := rx.Kernel.NewMailbox("srv", 8<<20)
		rx.TP.Register(7, srv)
		rx.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
			for {
				req := srv.Get(th)
				delivered++
				b := req.Bytes()
				rx.TP.Respond(th, req, b[:min(1, len(b))])
				srv.Release(req)
			}
		})
	}

	// The armed SLO engine ticks in virtual time forever; stop the
	// telemetry plane when the last sender finishes (at once when there is
	// none) so Run drains.
	var sent, failed int
	active := *senders
	idle := func() {
		if active == 0 && *sloOn {
			sys.StopTelemetry()
		}
	}
	for s := 1; s <= *senders; s++ {
		st := sys.CAB(s)
		st.Kernel.Spawn("tx", func(th *kernel.Thread) {
			defer func() {
				active--
				idle()
			}()
			for i := 0; i < *msgs; i++ {
				payload := make([]byte, *size)
				start := th.Proc().Now()
				var err error
				switch *transport {
				case "datagram":
					err = st.TP.SendDatagram(th, 0, 1, 0, payload)
				case "stream":
					err = st.TP.StreamSend(th, 0, 1, 0, payload)
				case "reqresp":
					_, err = st.TP.Request(th, 0, 7, 2, payload)
				}
				sent++
				if err != nil {
					failed++
				} else {
					lat.Add(th.Proc().Now() - start)
				}
			}
		})
	}

	idle()
	end := sys.Run()
	fmt.Fprintf(stdout, "\nfinished at %v (%d events)\n", end, sys.Eng.Executed())
	fmt.Fprintf(stdout, "sent=%d failed=%d delivered=%d\n", sent, failed, delivered)
	fmt.Fprintf(stdout, "sender-side completion: %v\n", lat)
	if delivered > 0 && end > 0 {
		fmt.Fprintf(stdout, "aggregate goodput: %.2f Mb/s\n",
			float64(delivered*(*size))*8/end.Seconds()/1e6)
	}
	for i, st := range sys.CABs {
		dl := st.DL.Stats()
		tp := st.TP.Stats()
		if dl.PacketsSent+dl.PacketsReceived == 0 {
			continue
		}
		fmt.Fprintf(stdout, "cab%-2d dl: sent=%d recv=%d framing=%d openTO=%d | tp: rtx=%d acks=%d ckdrop=%d mbdrop=%d | cpu busy=%v\n",
			i, dl.PacketsSent, dl.PacketsReceived, dl.FramingErrors, dl.OpenTimeouts,
			tp.Retransmits, tp.AcksSent, tp.ChecksumDrops, tp.MailboxDrops,
			st.Board.CPU.BusyTime())
	}

	if sys.SLO != nil {
		fmt.Fprintf(stdout, "\nSLO status (bound %v):\n%s", *sloBound, sys.SLO.Text())
		if bundles := sys.SLO.Bundles(); len(bundles) > 0 {
			fmt.Fprintf(stdout, "%d diagnosis bundle(s) captured\n", len(bundles))
			if *sloDump != "" {
				if err := os.WriteFile(*sloDump, bundles[0].JSON(), 0o644); err != nil {
					fmt.Fprintln(stderr, "slodump:", err)
					return 1
				}
				fmt.Fprintf(stdout, "wrote diagnosis bundle to %s\n", *sloDump)
			}
		} else if *sloDump != "" {
			fmt.Fprintln(stderr, "slodump: no alert fired, no bundle captured")
		}
	}
	return 0
}

// build constructs the system. core.New panics with a "nectar: ..."
// message on a configuration it rejects (a topology that does not fit a
// HUB, say); build returns that message as an error so the command can
// exit 2 with it like any other bad argument. Other panics pass through.
func build(t core.Topology, opts []core.Option) (sys *core.System, err error) {
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok || !strings.HasPrefix(msg, "nectar: ") {
				panic(r)
			}
			err = errors.New(msg)
		}
	}()
	return core.New(t, opts...), nil
}

// chaosHorizon bounds a chaos run; ample time for every scenario's fault
// window plus recovery of a paced message train.
const chaosHorizon = 150 * sim.Millisecond

// overloadSLO bounds the critical-class per-message p99 in the overload
// chaos scenario: with admission control shedding the bulk storm, critical
// requests must keep completing at healthy-system latencies.
const overloadSLO = 2 * sim.Millisecond

// runChaos drives a fault-injected mesh: corner-to-corner request traffic
// with application-level retry, the named scenario scheduled against it,
// and the detection/recovery stack (link probing, heartbeats, backoff)
// doing all repair. Returns a nonzero exit status if any message goes
// undelivered; TestChaosGolden keys off this. The overload scenario
// arms the overload-control subsystem, sends the application traffic at
// ClassCritical, and additionally fails the run if the critical-class
// per-message p99 violates overloadSLO while the bulk storm rages. On
// failure the flight-recorder post-mortem (recent events plus the
// link-state timeline) goes to stderr; dumpPath, when set, receives a copy
// of the post-mortem whatever the outcome.
func runChaos(stdout, stderr io.Writer, name string, seed int64, rows, cols, msgs int, dumpPath string) int {
	if rows < 2 {
		rows = 2
	}
	if cols < 2 {
		cols = 2
	}
	overload := name == "overload"
	opts := append(fault.TrainOptions(), core.WithFlightRecorder(), core.WithStallWatchdog())
	if overload {
		opts = append(opts, core.WithOverloadControl())
	}
	sys := core.New(core.Mesh(rows, cols, 1), opts...)
	n := sys.NumCABs()

	sc, err := fault.Named(name, seed, sys)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	inj := fault.New(sys, sc)
	inj.Schedule()

	fmt.Fprintf(stdout, "chaos %s (seed %d): %dx%d mesh, %d CABs, %d messages CAB 0 -> CAB %d\n",
		name, seed, rows, cols, n, msgs, n-1)
	for _, a := range sc.Actions {
		fmt.Fprintf(stdout, "  inject: %v\n", a)
	}

	// The train runs corner to corner. Under the overload scenario it is
	// critical-class: the SLO says the storm must not move its p99.
	train := fault.Train{From: 0, To: n - 1, Msgs: msgs}
	if overload {
		train.Opts.Class = transport.ClassCritical
	}
	out := fault.StartTrain(sys, train)

	// The overload scenario's bulk storm needs a sink that answers, so the
	// storm exercises the receive-side admission path rather than just
	// timing out against an unregistered box.
	if overload {
		rx := sys.CAB(n - 1)
		stormMB := rx.Kernel.NewMailbox("storm-server", 256*1024)
		rx.TP.Register(fault.StormBox, stormMB)
		rx.Kernel.SpawnDaemon("storm-server", func(th *kernel.Thread) {
			for {
				req := stormMB.Get(th)
				rx.TP.Respond(th, req, req.Bytes()[:1])
				stormMB.Release(req)
			}
		})
	}

	sys.RunUntil(chaosHorizon)
	sys.StopProbers()

	fmt.Fprintf(stdout, "\ndelivered=%d/%d duplicates=%d completed_at=%v\n", out.Delivered, msgs, out.Duplicates, out.DoneAt)
	if c := inj.DetectLatency().Count(); c > 0 {
		fmt.Fprintf(stdout, "fault detection: %d event(s), mean latency %v\n", c, inj.DetectLatency().Mean())
	}
	if c := inj.RecoveryTime().Count(); c > 0 {
		fmt.Fprintf(stdout, "recovery: %d event(s), mean time %v\n", c, inj.RecoveryTime().Mean())
	}
	tp := sys.CAB(0).TP.Stats()
	fmt.Fprintf(stdout, "links failed=%d restored=%d; peer deaths=%d revivals=%d; crashes=%d\n",
		sys.Reg.Counter("net.links_failed").Value(), sys.Reg.Counter("net.links_restored").Value(),
		tp.PeersDied, tp.PeersRevived, sys.CAB(0).Board.Crashes())

	if overload {
		var sheds, expired, trips int64
		for _, c := range sys.CABs {
			sheds += c.TP.OverloadSheds()
			expired += c.TP.OverloadExpired()
			trips += c.TP.OverloadBreakerTrips()
		}
		fmt.Fprintf(stdout, "overload control: sheds=%d expired=%d breaker-trips=%d; critical p99=%v (SLO %v)\n",
			sheds, expired, trips, out.Latency.Quantile(0.99), overloadSLO)
	}

	if dumpPath != "" {
		if err := os.WriteFile(dumpPath, []byte(sys.FR.PostMortem()), 0o644); err != nil {
			fmt.Fprintln(stderr, "dump:", err)
		}
	}
	if out.Delivered != msgs || out.DoneAt == 0 {
		fmt.Fprintf(stderr, "FAIL: %d of %d messages undelivered\n", msgs-out.Delivered, msgs)
		sys.FR.Dump(stderr)
		return 1
	}
	if p99 := out.Latency.Quantile(0.99); overload && p99 > overloadSLO {
		fmt.Fprintf(stderr, "FAIL: critical-class p99 %v violates the %v SLO under the bulk storm\n",
			p99, overloadSLO)
		sys.FR.Dump(stderr)
		return 1
	}
	if overload {
		fmt.Fprintln(stdout, "PASS: all messages delivered and the critical-class SLO held under overload")
		return 0
	}
	fmt.Fprintln(stdout, "PASS: all messages delivered after automatic recovery")
	return 0
}

// runCombChaos is the combining-under-link-flaps chaos scenario: every CAB of
// a mesh joins one collective group forced onto the HUB-combining
// algorithm, an inter-hub link flaps while allreduces and barriers stream
// through it, and each iteration's result is checked for exactness. Slots
// that lose a contributor must degrade to the endpoint fold without
// double-counting, so any inexact sum — or any rank that never finishes —
// exits 1. dumpPath, when set, receives the flight-recorder post-mortem
// whatever the outcome.
func runCombChaos(stdout, stderr io.Writer, seed int64, rows, cols, iters int, dumpPath string) int {
	if rows < 2 {
		rows = 2
	}
	if cols < 2 {
		cols = 2
	}
	sys := core.New(core.Mesh(rows, cols, 2),
		core.WithMetrics(), core.WithFaultRecovery(),
		core.WithFlightRecorder(), core.WithHubCombining())
	n := sys.NumCABs()

	sc, err := fault.Named("comb", seed, sys)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	inj := fault.New(sys, sc)
	inj.Schedule()

	fmt.Fprintf(stdout, "chaos comb (seed %d): %dx%d mesh, %d CABs all in one combining group, %d iterations\n",
		seed, rows, cols, n, iters)
	for _, a := range sc.Actions {
		fmt.Fprintf(stdout, "  inject: %v\n", a)
	}

	out := fault.StartCollTrain(sys, fault.CollTrain{Algo: "comb", Iters: iters, Lanes: 2})
	sys.RunUntil(chaosHorizon)
	sys.StopProbers()

	fmt.Fprintf(stdout, "\nhub_combined=%d fallback=%d; links failed=%d restored=%d\n",
		sys.Reg.Counter("coll.comb.hub_combined").Value(),
		sys.Reg.Counter("coll.comb.fallback").Value(),
		sys.Reg.Counter("net.links_failed").Value(),
		sys.Reg.Counter("net.links_restored").Value())
	if c := inj.DetectLatency().Count(); c > 0 {
		fmt.Fprintf(stdout, "fault detection: %d event(s), mean latency %v\n", c, inj.DetectLatency().Mean())
	}

	if dumpPath != "" {
		if err := os.WriteFile(dumpPath, []byte(sys.FR.PostMortem()), 0o644); err != nil {
			fmt.Fprintln(stderr, "dump:", err)
		}
	}
	if fails := out.Failures(); len(fails) > 0 {
		for _, err := range fails {
			fmt.Fprintf(stderr, "FAIL: %v\n", err)
		}
		sys.FR.Dump(stderr)
		return 1
	}
	fmt.Fprintln(stdout, "PASS: every collective result exact across the link flap")
	return 0
}
