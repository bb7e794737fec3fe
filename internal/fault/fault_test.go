package fault_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hub"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/transport"
)

// chaosParams enables the full detection stack: link probing, peer
// heartbeats, metrics.
func chaosParams() core.Params {
	p := core.DefaultParams()
	p.Metrics = true
	p.Datalink.ProbeInterval = 200 * sim.Microsecond
	p.Transport.HeartbeatInterval = 200 * sim.Microsecond
	return p
}

// echoServer registers box on the CAB and answers every request.
func echoServer(c *core.CABStack, box uint16) {
	mb := c.Kernel.NewMailbox("server", 256*1024)
	c.TP.Register(box, mb)
	c.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := mb.Get(th)
			c.TP.Respond(th, req, append([]byte("ok:"), req.Bytes()...))
			mb.Release(req)
		}
	})
}

// A severed inter-HUB link in a mesh must be detected by the probe layer
// and routed around with no manual intervention, and every application
// message must still arrive.
func TestLinkFlapAutomaticRerouting(t *testing.T) {
	sys := core.New(core.Mesh(2, 2, 1), core.WithParams(chaosParams()))
	echoServer(sys.CAB(3), 5)

	inj := fault.New(sys, fault.Scenario{
		Name: "linkflap",
		Actions: []fault.Action{
			fault.LinkFlap{A: 0, B: 1, At: 2 * sim.Millisecond, Duration: 10 * sim.Millisecond},
		},
	})
	inj.Schedule()

	const n = 20
	delivered := 0
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		for i := 0; i < n; i++ {
			for {
				resp, err := sys.CAB(0).TP.Request(th, 3, 5, 1, []byte(fmt.Sprintf("msg-%02d", i)))
				if err == nil {
					if string(resp) != fmt.Sprintf("ok:msg-%02d", i) {
						t.Errorf("message %d: bad response %q", i, resp)
					}
					delivered++
					break
				}
			}
		}
	})
	sys.RunUntil(80 * sim.Millisecond)

	if delivered != n {
		t.Fatalf("delivered %d/%d messages across the link flap", delivered, n)
	}
	if inj.DetectLatency().Count() == 0 {
		t.Fatal("probe layer never detected the severed link")
	}
	if inj.RecoveryTime().Count() == 0 {
		t.Fatal("probe layer never restored the repaired link")
	}
	if got := sys.Reg.Counter("net.links_failed").Value(); got == 0 {
		t.Fatal("net.links_failed not counted")
	}
	t.Logf("detect=%v recover=%v", inj.DetectLatency().Mean(), inj.RecoveryTime().Mean())
}

// A crashed peer must surface as ErrPeerDead (not an endless retry), and a
// rebooted peer must be revived by the heartbeat exchange.
func TestCrashPeerDeathAndRevival(t *testing.T) {
	p := chaosParams()
	p.Transport.ReqTimeout = sim.Millisecond
	sys := core.New(core.SingleHub(2), core.WithParams(p))
	echoServer(sys.CAB(1), 7)

	inj := fault.New(sys, fault.Scenario{
		Name: "crash",
		Actions: []fault.Action{
			fault.CrashCAB{CAB: 1, At: 5 * sim.Millisecond, RebootAfter: 10 * sim.Millisecond},
		},
	})
	inj.Schedule()

	sawDead := false
	recovered := false
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		if _, err := sys.CAB(0).TP.Request(th, 1, 7, 1, []byte("before")); err != nil {
			t.Errorf("pre-crash request: %v", err)
		}
		th.Sleep(6 * sim.Millisecond) // crash has happened
		for attempt := 0; attempt < 100; attempt++ {
			_, err := sys.CAB(0).TP.Request(th, 1, 7, 1, []byte("after"))
			if err == nil {
				recovered = true
				return
			}
			if _, ok := err.(*transport.ErrPeerDead); ok {
				sawDead = true
			}
			th.Sleep(sim.Millisecond)
		}
	})
	sys.RunUntil(60 * sim.Millisecond)

	if !sawDead {
		t.Fatal("blocked sender never saw ErrPeerDead")
	}
	if !recovered {
		t.Fatal("requests never succeeded after the peer rebooted")
	}
	st := sys.CAB(0).TP.Stats()
	if st.PeersDied == 0 || st.PeersRevived == 0 {
		t.Fatalf("peer lifecycle not counted: died=%d revived=%d", st.PeersDied, st.PeersRevived)
	}
	if sys.CAB(1).Board.Crashes() != 1 {
		t.Fatalf("crashes=%d", sys.CAB(1).Board.Crashes())
	}
}

// runSeeded runs a randomized scenario against corner traffic and returns
// the registry snapshot — the full observable behaviour of the run.
func runSeeded(seed int64) string {
	sys := core.New(core.Mesh(2, 2, 1), core.WithParams(chaosParams()))
	echoServer(sys.CAB(3), 5)
	sc := fault.RandomScenario(sys, seed, 4, 20*sim.Millisecond)
	inj := fault.New(sys, sc)
	inj.Schedule()
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		for i := 0; i < 10; i++ {
			for attempt := 0; attempt < 50; attempt++ {
				_, err := sys.CAB(0).TP.Request(th, 3, 5, 1, []byte(fmt.Sprintf("m%d", i)))
				if err == nil {
					break
				}
				th.Sleep(sim.Millisecond)
			}
		}
	})
	sys.RunUntil(60 * sim.Millisecond)
	return sys.Reg.Text()
}

// The whole chaos run — faults, detection, recovery, traffic — must be
// byte-reproducible per seed.
func TestDeterministicReplay(t *testing.T) {
	a := runSeeded(42)
	b := runSeeded(42)
	if a != b {
		t.Fatalf("same seed produced different runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if c := runSeeded(43); c == a {
		t.Log("warning: different seed produced an identical run")
	}
}

// A randomized scenario's action list is itself a pure function of the
// seed.
func TestRandomScenarioDeterministic(t *testing.T) {
	sys := core.New(core.Mesh(2, 2, 1), core.WithParams(chaosParams()))
	a := fault.RandomScenario(sys, 7, 6, 20*sim.Millisecond)
	b := fault.RandomScenario(sys, 7, 6, 20*sim.Millisecond)
	if len(a.Actions) != len(b.Actions) {
		t.Fatalf("action counts differ: %d vs %d", len(a.Actions), len(b.Actions))
	}
	for i := range a.Actions {
		if a.Actions[i].String() != b.Actions[i].String() {
			t.Fatalf("action %d differs: %v vs %v", i, a.Actions[i], b.Actions[i])
		}
	}
}

// A stuck HUB output register black-holes traffic; resetting it restores
// service and the drops are visible on the port counters.
func TestPortStuckAndReset(t *testing.T) {
	p := chaosParams()
	p.Transport.ReqTimeout = sim.Millisecond
	sys := core.New(core.SingleHub(2), core.WithParams(p))
	echoServer(sys.CAB(1), 7)

	port := sys.Net.PortOf(1)
	inj := fault.New(sys, fault.Scenario{
		Name: "stuck",
		Actions: []fault.Action{
			fault.PortStuck{Hub: 0, Port: port, At: sim.Millisecond, Duration: 5 * sim.Millisecond},
		},
	})
	inj.Schedule()

	failures, successes := 0, 0
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		th.Sleep(2 * sim.Millisecond) // inside the stuck window
		if _, err := sys.CAB(0).TP.Request(th, 1, 7, 1, []byte("during")); err != nil {
			failures++
		}
		th.Sleep(10 * sim.Millisecond) // port reset
		for attempt := 0; attempt < 20; attempt++ {
			if _, err := sys.CAB(0).TP.Request(th, 1, 7, 1, []byte("post")); err == nil {
				successes++
				return
			}
		}
	})
	sys.RunUntil(60 * sim.Millisecond)

	if failures == 0 {
		t.Fatal("requests through a stuck port should fail")
	}
	if successes == 0 {
		t.Fatal("requests after the port reset should succeed")
	}
	if drops := sys.Net.Hub(0).Port(port).Drops(); drops == 0 {
		t.Fatal("stuck port recorded no drops")
	}
}

// Every catalogue name resolves on the 2x2 mesh the chaos runs use, the
// same (name, seed) yields the same scenario twice, and an unknown name is
// an error rather than an empty scenario.
func TestNamedCatalogue(t *testing.T) {
	sys := core.New(core.Mesh(2, 2, 1))
	for _, name := range fault.Names() {
		a, err := fault.Named(name, 7, sys)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(a.Actions) == 0 {
			t.Errorf("%s: no actions", name)
		}
		if b, _ := fault.Named(name, 7, sys); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two draws differ:\n%v\n%v", name, a, b)
		}
	}
	if _, err := fault.Named("bogus", 7, sys); err == nil {
		t.Error("unknown scenario name did not error")
	}
	if _, err := fault.Named("portstuck", 7, core.New(core.SingleHub(4))); err == nil {
		t.Error("portstuck on a system with no inter-HUB edge did not error")
	}
}

// The message train counts each message once however often a fault makes
// the client retry it, and the hot-spot scenario's digest is a function of
// the run alone: same scenario, same digest; no storm, different digest.
func TestTrainAndHotSpot(t *testing.T) {
	sys := core.New(core.Mesh(2, 2, 1), core.WithParams(chaosParams()))
	sc, _ := fault.Named("crash", 1, sys)
	fault.New(sys, sc).Schedule()
	out := fault.StartTrain(sys, fault.Train{From: 0, To: 3, Msgs: 12})
	sys.RunUntil(60 * sim.Millisecond)
	if out.Delivered != 12 || out.DoneAt == 0 || out.Latency.Count() != 12 {
		t.Fatalf("train: delivered %d/12 (dup %d), done at %v, %d latencies",
			out.Delivered, out.Duplicates, out.DoneAt, out.Latency.Count())
	}
	if out.Latency.Max() < 2*sim.Millisecond {
		t.Fatalf("no message waited out the crash: max latency %v", out.Latency.Max())
	}

	hot := func(dur sim.Time) *fault.HotSpotRun {
		sys := core.New(core.Mesh(1, 2, 3), func(p *core.Params) { p.TraceSpans = 50000 })
		run := fault.StartHotSpot(sys, fault.HotSpot{
			Client: 0, Victim: 5, Every: 100 * sim.Microsecond,
			Srcs: []int{3, 4}, At: sim.Millisecond, Duration: dur, Size: 512,
		})
		sys.RunUntil(4 * sim.Millisecond)
		return run
	}
	a, b, calm := hot(2*sim.Millisecond), hot(2*sim.Millisecond), hot(0)
	if a.Requests == 0 || a.Digest != b.Digest || a.Requests != b.Requests {
		t.Fatalf("replay differs: %d requests %016x vs %d requests %016x", a.Requests, a.Digest, b.Requests, b.Digest)
	}
	if calm.Digest == a.Digest {
		t.Fatal("the storm left no mark on the request latencies")
	}
	p99 := a.CriticalPath(0.99)
	if p99 == nil {
		t.Fatal("no traced request completed inside the storm window")
	}
	if q := p99.MaxQueue(); !strings.HasPrefix(q.Comp, "hub2.") {
		t.Fatalf("p99 queueing hotspot %q is not on the victim's HUB", q.Comp)
	}
	// The fastest and the slowest request of the window both began in it.
	for _, q := range []float64{0, 1} {
		if at := a.CriticalPath(q).Root.Start(); at < sim.Millisecond || at > 3*sim.Millisecond {
			t.Fatalf("quantile %v request began at %v, outside the storm window [1ms, 3ms]", q, at)
		}
	}
}

// Ready credit is conserved across every catalogue fault: once a scenario
// has run to quiescence, every HUB output register that feeds a fiber is
// ready unless it is marked failed or stuck, and every powered board may
// send. Each scenario also runs with link probing off, so no FailLink or
// RestoreLink resets a register behind the fabric's back and a credit lost
// anywhere stays lost.
func TestCreditConservedAcrossFaults(t *testing.T) {
	noProbes := func(p *core.Params) { p.Datalink.ProbeInterval = 0 }
	for _, name := range fault.Names() {
		for _, probing := range []bool{true, false} {
			label := name
			opts := fault.TrainOptions()
			if !probing {
				label += "/no-probes"
				opts = append(opts, noProbes)
			}
			t.Run(label, func(t *testing.T) {
				sys := core.New(core.Mesh(2, 2, 1), opts...)
				sc, err := fault.Named(name, 7, sys)
				if err != nil {
					t.Fatal(err)
				}
				fault.New(sys, sc).Schedule()
				const msgs = 20
				out := fault.StartTrain(sys, fault.Train{From: 0, To: sys.NumCABs() - 1, Msgs: msgs})
				sys.RunUntil(60 * sim.Millisecond)
				sys.StopProbers()
				sys.RunUntil(80 * sim.Millisecond)
				net := sys.Net
				outputs := map[*hub.Port]bool{}
				for id := range sys.CABs {
					outputs[net.Hub(net.HubOf(id)).Port(net.PortOf(id))] = true
				}
				for _, e := range net.InterHubEdges() {
					pa, _ := net.EdgePort(e[0], e[1])
					pb, _ := net.EdgePort(e[1], e[0])
					outputs[net.Hub(e[0]).Port(pa)] = true
					outputs[net.Hub(e[1]).Port(pb)] = true
				}
				for p := range outputs {
					if !p.Ready() && !p.Failed() && !p.Stuck() {
						t.Errorf("%s: output register not ready at quiescence", p.EndpointName())
					}
				}
				for _, c := range sys.CABs {
					if b := c.Board; b.Powered() && !b.NetReady() {
						t.Errorf("%s: powered board not ready at quiescence", b.Name())
					}
				}
				if n := sys.Eng.Pending(); n != 0 {
					t.Errorf("not quiescent: %d events pending", n)
				}
				if out.Delivered != msgs {
					t.Errorf("delivered %d/%d", out.Delivered, msgs)
				}
			})
		}
	}
}
