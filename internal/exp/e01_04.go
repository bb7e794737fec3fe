package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hub"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// E1HubLatency reproduces paper §4(1),(2): connection setup + first byte
// through a single HUB in 10 cycles (700 ns); established-circuit transfer
// in 5 cycles (350 ns); controller switching rate of one connection per
// 70 ns cycle.
func E1HubLatency() *Result {
	params := core.DefaultParams()
	setup, transfer := hubSetupMeasurement(params)

	// Controller switching rate: 8 simultaneous opens; the reply spread
	// divided by 7 grants is the per-grant cycle.
	sys := core.New(core.SingleHub(16), core.WithParams(params))
	raws := make([]*rawEndpoint, 8)
	for i := 0; i < 8; i++ {
		raws[i] = captureRaw(sys.CAB(i))
	}
	sys.Eng.At(0, func() {
		for i := 0; i < 8; i++ {
			st := sys.CAB(i)
			st.Board.Send(rawCommand(st, hub.OpOpenRetryReply, sys.Net.Hub(0).ID(), byte(8+i)))
		}
	})
	sys.Run()
	var minR, maxR sim.Time
	ok := true
	for i, r := range raws {
		if len(r.replyAt) != 1 {
			ok = false
			continue
		}
		if i == 0 || r.replyAt[0] < minR {
			minR = r.replyAt[0]
		}
		if r.replyAt[0] > maxR {
			maxR = r.replyAt[0]
		}
	}
	perGrant := (maxR - minR) / 7

	t := trace.NewTable("HUB hardware latencies (paper section 4)",
		"metric", "paper", "measured")
	t.AddRow("connection setup + first byte", "700ns (10 cycles)", setup)
	t.AddRow("established-circuit byte transfer", "350ns (5 cycles)", transfer)
	t.AddRow("controller grant interval", "70ns (1 cycle)", perGrant)

	pass := ok && setup == 700*sim.Nanosecond && transfer == 350*sim.Nanosecond &&
		perGrant == hub.CycleTime
	return &Result{
		ID: "E1", Title: "HUB latency and switching rate",
		Tables: []*trace.Table{t},
		Pass:   pass,
	}
}

// E2Bandwidth reproduces the abstract's bandwidth claims: 100 Mb/s per
// fiber and a 1.6 Gb/s aggregate for a 16-port HUB with all ports active.
func E2Bandwidth() *Result {
	params := core.DefaultParams()
	// Single-flow throughput.
	single := streamThroughput(512*1024, params)

	// All-ports aggregate: 8 disjoint pairs, both directions streaming.
	sys := core.New(core.SingleHub(16), core.WithParams(params))
	const per = 256 * 1024
	flows := 0
	for i := 0; i < 8; i++ {
		for dir := 0; dir < 2; dir++ {
			src, dst := i, i+8
			if dir == 1 {
				src, dst = i+8, i
			}
			flows++
			startTransfer(sys, src, dst, uint16(10+dir), per, true)
		}
	}
	end := sys.Run()
	aggregate := mbps(flows*per, end)

	t := trace.NewTable("Nectar-net bandwidth (paper abstract, section 3.2)",
		"metric", "paper", "measured")
	t.AddRow("per-fiber stream throughput", "100 Mb/s peak", fmt.Sprintf("%.1f Mb/s", single))
	t.AddRow("16-port aggregate (16 flows)", "1600 Mb/s", fmt.Sprintf("%.1f Mb/s", aggregate))

	return &Result{
		ID: "E2", Title: "Fiber and aggregate bandwidth",
		Tables: []*trace.Table{t},
		Notes: []string{
			"per-flow throughput is below the 100 Mb/s wire peak by the per-packet protocol cost, as on real hardware",
		},
		Pass: single > 60 && aggregate > 1000,
	}
}

// E3LatencyGoals reproduces the §2.3 latency goals: CAB-to-CAB < 30 us,
// node-to-node < 100 us, single-HUB connection setup < 1 us.
func E3LatencyGoals() *Result {
	params := core.DefaultParams()
	t := trace.NewTable("Latency goals (paper section 2.3)",
		"path", "size", "goal", "measured", "met")

	pass := true
	cab64 := cabLatencyOneWay(64, params)
	met := cab64 < 30*sim.Microsecond
	pass = pass && met
	t.AddRow("CAB process to CAB process", "64B", "< 30us", cab64, met)

	for _, size := range []int{1, 256, 958} {
		lat := cabLatencyOneWay(size, params)
		t.AddRow("CAB process to CAB process", fmt.Sprintf("%dB", size), "-", lat, "")
	}

	nodeLat := nodeSharedLatency(64)
	met = nodeLat < 100*sim.Microsecond
	pass = pass && met
	t.AddRow("node process to node process", "64B", "< 100us", nodeLat, met)

	setup, _ := hubSetupMeasurement(params)
	met = setup < sim.Microsecond
	pass = pass && met
	t.AddRow("connection through one HUB", "-", "< 1us", setup, met)

	return &Result{
		ID: "E3", Title: "End-to-end latency goals",
		Tables: []*trace.Table{t},
		Pass:   pass,
	}
}

// E4Kernel reproduces §6.1: thread switching between 10 and 15 us, and the
// cost of the mailbox/event path that wakes a protocol thread.
func E4Kernel() *Result {
	params := core.DefaultParams()

	// Thread switch: semaphore ping-pong; each round trip is two context
	// switches.
	sys := core.New(core.SingleHub(1), core.WithParams(params))
	k := sys.CAB(0).Kernel
	ping := k.NewSem(0)
	pong := k.NewSem(0)
	const rounds = 100
	var first, last sim.Time
	k.Spawn("ping", func(th *kernel.Thread) {
		first = th.Proc().Now()
		for i := 0; i < rounds; i++ {
			pong.V()
			ping.P(th)
		}
		last = th.Proc().Now()
	})
	k.Spawn("pong", func(th *kernel.Thread) {
		for i := 0; i < rounds; i++ {
			pong.P(th)
			ping.V()
		}
	})
	sys.Run()
	switchCost := (last - first) / (2 * rounds)

	// Interrupt-to-thread delivery: TryPut from an interrupt handler to a
	// waiting thread.
	sys2 := core.New(core.SingleHub(1), core.WithParams(params))
	k2 := sys2.CAB(0).Kernel
	mb := k2.NewMailbox("m", 4096)
	var deliverAt, wakeAt sim.Time
	k2.Spawn("waiter", func(th *kernel.Thread) {
		msg := mb.Get(th)
		wakeAt = th.Proc().Now()
		mb.Release(msg)
	})
	sys2.Eng.At(100*sim.Microsecond, func() {
		deliverAt = sys2.Eng.Now()
		mb.TryPut([]byte("x"), 0, 0)
	})
	sys2.Run()
	wakeup := wakeAt - deliverAt

	t := trace.NewTable("CAB kernel costs (paper section 6.1)",
		"metric", "paper", "measured")
	t.AddRow("thread context switch", "10-15us", switchCost)
	t.AddRow("mailbox delivery to waiting thread", "-", wakeup)

	pass := switchCost >= 10*sim.Microsecond && switchCost <= 15*sim.Microsecond
	return &Result{
		ID: "E4", Title: "Kernel thread and mailbox costs",
		Tables: []*trace.Table{t},
		Pass:   pass,
	}
}
