package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/cab"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/hub"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/flow"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// A probe drives one layer alone, through its public entry points, in a
// tight loop: host ns and heap allocations per call. With the per-op counts
// of the traced run a reviewer can multiply out the most a faster layer
// could save before believing a claim. A probe with no public entry point
// is dropped and listed in README.md, not added to the program.

const probeBatches = 10

// probe times batches of fn(n), each doing n calls, and returns the
// fastest batch's ns per call and the allocations per call of that batch.
// The minimum is the estimator for the same reason as in estimate.go, and
// the batches are many and short for the same reason the slices are.
func (p *prober) probe(name string, n int, fn func(n int)) (ns, allocs float64) {
	lsp := p.rec.begin(p.layer, name)
	defer p.rec.end(lsp)
	if n /= p.div; n < 10 {
		n = 10
	}
	fn(n / 10) // warm caches, pools and lazily built state
	ns = -1
	var ms runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		bsp := p.rec.begin(lsp, "batch")
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		fn(n)
		d := float64(time.Since(t0)) / float64(n)
		runtime.ReadMemStats(&ms)
		p.rec.end(bsp)
		if ns < 0 || d < ns {
			ns, allocs = d, float64(ms.Mallocs-m0)/float64(n)
		}
	}
	return ns, allocs
}

// prober runs the probes and records its own spans,
// probes -> <layer> -> <probe> -> batch.
type prober struct {
	rec   *spanRecorder
	div   int
	layer int // the current layer's span
	out   map[string]float64
}

// runProbes measures every probe metric. div divides every iteration
// count: 1 in a real run, large in the smoke test.
func runProbes(rec *spanRecorder, div int) map[string]float64 {
	p := &prober{rec: rec, div: div, out: map[string]float64{}}
	root := rec.root
	for _, l := range []struct {
		name string
		run  func()
	}{
		{"sim", p.sim}, {"kernel", p.kernel}, {"transport", p.transport}, {"datalink", p.datalink},
		{"hub", p.hub}, {"fiber", p.fiber}, {"cab", p.cab}, {"coll", p.coll}, {"topo", p.topo}, {"obs", p.obs},
	} {
		p.layer = rec.begin(root, l.name)
		l.run()
		rec.end(p.layer)
	}
	return p.out
}

func (p *prober) sim() {
	// One event: schedule and fire, with a few hundred timers pending as
	// in a one-HUB run.
	eng := sim.NewEngine()
	for i := 0; i < 256; i++ {
		eng.At(sim.Time(1)<<40+sim.Time(i), func() {})
	}
	p.out["sim.probe.event_ns"], p.out["sim.probe.event_allocs"] = p.probe("event", 200000, func(n int) {
		left := n
		var fire func()
		fire = func() {
			if left--; left > 0 {
				eng.After(10, fire)
			}
		}
		eng.After(10, fire)
		eng.RunUntil(eng.Now() + sim.Time(n)*10)
	})

	// One proc slice: a Sleep is one event and two goroutine hand-offs.
	procSwitch := func(name string) float64 {
		ns, _ := p.probe(name, 50000, func(n int) {
			e := sim.NewEngine()
			e.Go("sleeper", func(pr *sim.Proc) {
				for i := 0; i < n; i++ {
					pr.Sleep(1)
				}
			})
			e.Run()
		})
		return ns
	}
	p.out["sim.probe.proc_switch_ns"] = procSwitch("proc_switch")
	// The same with a second P: the hand-offs may now cross threads,
	// which is why the harness pins GOMAXPROCS to 1.
	prev := runtime.GOMAXPROCS(2)
	p.out["sim.probe.proc_switch_p2_ns"] = procSwitch("proc_switch_p2")
	runtime.GOMAXPROCS(prev)

	// One Signal hand-off between two procs.
	p.out["sim.probe.signal_handoff_ns"], _ = p.probe("signal_handoff", 50000, func(n int) {
		e := sim.NewEngine()
		ping, pong := sim.NewSignal(e), sim.NewSignal(e)
		// pong starts first, so it is already waiting when ping signals.
		e.GoDaemon("pong", func(pr *sim.Proc) {
			for {
				pong.Wait(pr)
				ping.Signal()
			}
		})
		e.Go("ping", func(pr *sim.Proc) {
			for i := 0; i < n/2; i++ { // a round trip is two hand-offs
				pong.Signal()
				ping.Wait(pr)
			}
		})
		e.Run()
	})
}

// onThread runs body on a fresh kernel thread of CAB i and drives the
// system until the thread finishes.
func onThread(sys *core.System, i int, body func(th *kernel.Thread)) {
	sys.CAB(i).Kernel.Spawn("probe", body)
	sys.Run()
}

func (p *prober) kernel() {
	sys := core.New(core.SingleHub(1))
	k := sys.CAB(0).Kernel
	ping, pong := k.NewSem(0), k.NewSem(0)
	k.SpawnDaemon("pong", func(th *kernel.Thread) {
		for {
			pong.P(th)
			ping.V()
		}
	})
	p.out["kernel.probe.thread_switch_ns"], _ = p.probe("thread_switch", 20000, func(n int) {
		onThread(sys, 0, func(th *kernel.Thread) {
			for i := 0; i < n/2; i++ { // a round trip is two switches
				pong.V()
				ping.P(th)
			}
		})
	})

	mb := k.NewMailbox("probe", 1<<20)
	msg := make([]byte, 64)
	p.out["kernel.probe.mailbox_putget_ns"], p.out["kernel.probe.mailbox_putget_allocs"] =
		p.probe("mailbox_putget", 50000, func(n int) {
			onThread(sys, 0, func(th *kernel.Thread) {
				for i := 0; i < n; i++ {
					if _, err := mb.Put(th, msg, 0, 0); err != nil {
						panic(err)
					}
					mb.Release(mb.Get(th))
				}
			})
		})
}

// probeBox is the mailbox number the transport probes serve on.
const probeBox = 5

func (p *prober) transport() {
	sys := core.New(core.SingleHub(2))
	srv := sys.CAB(1)
	resp := make([]byte, 256)
	reqMB := srv.Kernel.NewMailbox("req", 4<<20)
	srv.TP.Register(probeBox, reqMB)
	srv.Kernel.SpawnDaemon("req-srv", func(th *kernel.Thread) {
		for {
			m := reqMB.Get(th)
			srv.TP.Respond(th, m, resp)
			reqMB.Release(m)
		}
	})
	vMB := srv.Kernel.NewMailbox("vmtp", 4<<20)
	srv.TP.Register(probeBox+1, vMB)
	srv.Kernel.SpawnDaemon("vmtp-srv", func(th *kernel.Thread) {
		for {
			m := vMB.Get(th)
			srv.TP.VRespond(th, m, resp)
			vMB.Release(m)
		}
	})
	sMB := srv.Kernel.NewMailbox("stream", 8<<20)
	srv.TP.Register(probeBox+2, sMB)
	srv.Kernel.SpawnDaemon("stream-sink", func(th *kernel.Thread) {
		for {
			sMB.Release(sMB.Get(th))
		}
	})
	cli := sys.CAB(0).TP
	req := make([]byte, 64)

	p.out["transport.probe.request_ns"], p.out["transport.probe.request_allocs"] =
		p.probe("request", 1000, func(n int) {
			onThread(sys, 0, func(th *kernel.Thread) {
				for i := 0; i < n; i++ {
					if _, err := cli.Request(th, 1, probeBox, 16, req); err != nil {
						panic(err)
					}
				}
			})
		})
	p.out["transport.probe.vtransact_ns"], p.out["transport.probe.vtransact_allocs"] =
		p.probe("vtransact", 1000, func(n int) {
			onThread(sys, 0, func(th *kernel.Thread) {
				for i := 0; i < n; i++ {
					if _, err := cli.VTransact(th, 1, probeBox+1, 16, req); err != nil {
						panic(err)
					}
				}
			})
		})
	const streamKB = 64
	bulk := make([]byte, streamKB<<10)
	ns, allocs := p.probe("stream64k", 20, func(n int) {
		onThread(sys, 0, func(th *kernel.Thread) {
			for i := 0; i < n; i++ {
				if err := cli.StreamSend(th, 1, probeBox+2, 16, bulk); err != nil {
					panic(err)
				}
			}
		})
	})
	p.out["transport.probe.stream64k_ns_per_kb"] = ns / streamKB
	p.out["transport.probe.stream64k_allocs_per_kb"] = allocs / streamKB
}

func (p *prober) datalink() {
	sys := core.New(core.SingleHub(2))
	sys.CAB(1).DL.SetReceiver(func([]byte, *trace.Span) {})
	dl := sys.CAB(0).DL
	payload := make([]byte, 256)
	p.out["datalink.probe.send_packet_ns"], p.out["datalink.probe.send_packet_allocs"] =
		p.probe("send_packet", 2500, func(n int) {
			onThread(sys, 0, func(th *kernel.Thread) {
				for i := 0; i < n; i++ {
					if err := dl.SendPacket(th, 1, payload); err != nil {
						panic(err)
					}
				}
			})
		})
}

func (p *prober) hub() {
	// One raw packet frame CAB0 -> HUB -> CAB1: test-open, packet, close
	// all, with no software on either board. The two fiber hops are
	// included; fiber.probe.send_ns says how much of it they are.
	sys := core.New(core.SingleHub(2))
	a, b := sys.CAB(0).Board, sys.CAB(1).Board
	a.SetItemHandler(func(*fiber.Item) {})
	b.SetItemHandler(func(it *fiber.Item) {
		if it.Kind == fiber.KindPacket {
			b.DrainedPacket()
		}
	})
	hubID, port := sys.Net.Hub(0).ID(), byte(sys.Net.PortOf(1))
	payload := make([]byte, 256)
	frame := func() {
		a.Send(
			&fiber.Item{Kind: fiber.KindCommand, Cmd: fiber.Command{Op: byte(hub.OpTestOpenRetry), Hub: hubID, Param: port}, ReplyTo: a},
			&fiber.Item{Kind: fiber.KindPacket, Payload: payload},
			&fiber.Item{Kind: fiber.KindCommand, Cmd: fiber.Command{Op: byte(hub.OpCloseAll), Hub: 0xFF}, ReplyTo: a},
		)
	}
	p.out["hub.probe.forward_ns"], p.out["hub.probe.forward_allocs"] = p.probe("forward", 10000, func(n int) {
		left := n
		var next func()
		next = func() {
			frame()
			if left--; left > 0 {
				sys.Eng.After(100*sim.Microsecond, next) // well past one frame's transit
			}
		}
		sys.Eng.After(0, next)
		sys.Run()
	})
	if fwd := sys.Net.Hub(0).Port(sys.Net.PortOf(1)).PacketsForwarded(); fwd == 0 {
		panic("hub probe: no packet was forwarded")
	}

	// One circuit-switched send as the datalink drives it: open with
	// reply, data, close.
	csys := core.New(core.SingleHub(2))
	csys.CAB(1).DL.SetReceiver(func([]byte, *trace.Span) {})
	dl := csys.CAB(0).DL
	p.out["hub.probe.circuit_ns"], _ = p.probe("circuit", 2500, func(n int) {
		onThread(csys, 0, func(th *kernel.Thread) {
			for i := 0; i < n; i++ {
				if err := dl.SendCircuit(th, 1, payload); err != nil {
					panic(err)
				}
			}
		})
	})
}

// sink is a fiber endpoint that discards what it receives.
type sink struct{}

func (sink) Receive(*fiber.Item)  {}
func (sink) EndpointName() string { return "sink" }

func (p *prober) fiber() {
	eng := sim.NewEngine()
	l := fiber.NewLink(eng, "probe", sink{})
	payload := make([]byte, 256)
	p.out["fiber.probe.send_ns"], p.out["fiber.probe.send_allocs"] = p.probe("send", 100000, func(n int) {
		for i := 0; i < n; i++ {
			l.Send(&fiber.Item{Kind: fiber.KindPacket, Payload: payload}, eng.Now())
		}
		eng.Run()
	})
}

func (p *prober) cab() {
	const kb = 64
	buf := make([]byte, kb<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	var sum uint16
	ns, _ := p.probe("checksum", 200, func(n int) {
		for i := 0; i < n; i++ {
			sum += cab.Checksum(buf)
		}
	})
	runtime.KeepAlive(sum)
	p.out["cab.probe.checksum_ns_per_kb"] = ns / kb

	eng := sim.NewEngine()
	dma := cab.NewDMA(eng)
	done := func() {}
	p.out["cab.probe.dma_transfer_ns"], _ = p.probe("dma_transfer", 100000, func(n int) {
		for i := 0; i < n; i++ {
			dma.Transfer(cab.ChanFiberOut, 256, done)
		}
		eng.Run()
	})
}

func (p *prober) coll() {
	const ranks = 8
	sys := core.New(core.SingleHub(ranks))
	cabs := make([]int, ranks)
	for i := range cabs {
		cabs[i] = i
	}
	g := coll.NewGroup(sys, 3, cabs)
	in := coll.Int64Bytes(make([]int64, 128)) // 1 KB, as in the BSP workload
	p.out["coll.probe.allreduce8_ns"], p.out["coll.probe.allreduce8_allocs"] =
		p.probe("allreduce8", 100, func(n int) {
			for r := 0; r < ranks; r++ {
				c := g.Member(r)
				sys.CAB(g.CABOf(r)).Kernel.Spawn("probe", func(th *kernel.Thread) {
					for i := 0; i < n; i++ {
						if _, err := c.Allreduce(th, coll.SumInt64, in); err != nil {
							panic(err)
						}
					}
				})
			}
			sys.Run()
		})
}

func (p *prober) topo() {
	// Building the 1024-CAB torus allocates its boards' memory (~1.5 GB),
	// so each build is released before the next.
	spec := core.Torus3D(4, 4, 8, 8).Spec()
	var net *topo.Network
	sp := p.rec.begin(p.layer, "build1024")
	best := -1.0
	for b := 0; b < 3 && (b == 0 || p.div == 1); b++ {
		net = nil
		runtime.GC()
		debug.FreeOSMemory()
		bsp := p.rec.begin(sp, "batch")
		t0 := time.Now()
		net = spec.Build(sim.NewEngine(), nil)
		d := time.Since(t0).Seconds()
		p.rec.end(bsp)
		if best < 0 || d < best {
			best = d
		}
	}
	p.rec.end(sp)
	p.out["topo.probe.build1024_s"] = best

	router := topo.NewRouter(net, topo.PolicyAdaptive)
	nc := len(net.Boards())
	p.out["topo.probe.route_ns"], _ = p.probe("route", 2500, func(n int) {
		for i := 0; i < n; i++ {
			src := (i * 7919) % nc
			dst := (src + 1 + (i*104729)%(nc-1)) % nc
			if _, err := router.Route(src, dst); err != nil {
				panic(err)
			}
		}
	})
	net = nil
	runtime.GC()
	debug.FreeOSMemory()
}

func (p *prober) obs() {
	eng := sim.NewEngine()

	// A message's worth of spans: a root, a child and a grandchild.
	spanProbe := func(name string, tr func() *trace.Tracer) float64 {
		ns, _ := p.probe(name, 150000, func(n int) {
			t := tr()
			for i := 0; i < n/3; i++ {
				root := t.Start(nil, trace.LayerApp, "cab0", "msg")
				c := root.Child(trace.LayerTransport, "cab0", "tp-send")
				c.Child(trace.LayerDatalink, "cab0", "dl-send-packet").End()
				c.End()
				root.End()
			}
		})
		return ns
	}
	p.out["obs.probe.span_ns"] = spanProbe("span", func() *trace.Tracer { return trace.NewTracer(eng, 0) })
	// Dark: the tracer is nil, as in every workload but the observed one.
	p.out["obs.probe.span_disabled_ns"] = spanProbe("span_disabled", func() *trace.Tracer { return nil })

	fr := obs.NewFlightRecorder(eng, obs.DefaultFlightEvents)
	p.out["obs.probe.flight_note_ns"], _ = p.probe("flight_note", 500000, func(n int) {
		for i := 0; i < n; i++ {
			fr.Note(obs.FSend, "dl", int64(i), 128)
		}
	})

	fl := flow.NewTable(flow.DefaultTopK, func(b byte) string { return "p" })
	p.out["obs.probe.flow_account_ns"], _ = p.probe("flow_account", 100000, func(n int) {
		for i := 0; i < n; i++ {
			fl.Account(i&7, (i>>3)&7, byte(i&3), 256, 0)
		}
	})

	se := slo.NewEngine(eng, slo.Params{Objectives: []slo.Objective{
		{Name: "rpc", Kind: slo.KindReqResp, Class: slo.AnyClass, LatencyBound: 200 * sim.Microsecond},
	}})
	p.out["obs.probe.slo_observe_ns"], _ = p.probe("slo_observe", 500000, func(n int) {
		for i := 0; i < n; i++ {
			se.Observe(slo.KindReqResp, 0, sim.Time(100+i&1023)*sim.Microsecond, true, 0)
		}
	})

	// One sampler tick over 20 sources (a 4-CAB one-HUB system registers
	// about that many), including the tick's own engine event.
	p.out["obs.probe.sampler_tick_ns"], _ = p.probe("sampler_tick", 25000, func(n int) {
		e := sim.NewEngine()
		s := obs.NewSampler(e, 1, 1024)
		var v int64
		for i := 0; i < 20; i++ {
			s.Register("src", func() int64 { v++; return v })
		}
		s.Start()
		e.RunUntil(sim.Time(n))
		s.Stop()
	})
}
