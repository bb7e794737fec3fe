package exp

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// E5VsLAN reproduces §3.1: "The Nectar-net offers at least an order of
// magnitude improvement in bandwidth and latency over current LANs." Nectar
// node-to-node (shared-memory interface) and CAB-to-CAB are compared with a
// 10 Mb/s Ethernet plus conventional UNIX stack.
func E5VsLAN() *Result {
	t := trace.NewTable("Nectar vs. current LAN (paper section 3.1)",
		"size", "LAN latency", "Nectar node-node", "Nectar CAB-CAB", "latency ratio (LAN/node)")
	params := core.DefaultParams()
	pass := true
	for _, size := range []int{64, 512, 4096} {
		lanL := lanLatency(size)
		nodeL := nodeSharedLatency(size)
		var cabL sim.Time
		if size <= 958 {
			cabL = cabLatencyOneWay(size, params)
		} else {
			cabL = cabLatencyOneWay(958, params) // single-packet bound
		}
		ratio := float64(lanL) / float64(nodeL)
		t.AddRow(fmt.Sprintf("%dB", size), lanL, nodeL, cabL, fmt.Sprintf("%.1fx", ratio))
		if size == 64 && ratio < 10 {
			pass = false
		}
	}

	t2 := trace.NewTable("Bulk throughput",
		"transfer", "LAN", "Nectar node-node", "Nectar CAB-CAB", "ratio (node/LAN)")
	lanT := mbps(512*1024, lanLatency(512*1024))
	nodeT := nodeThroughput(512*1024, 8*1024)
	cabT := streamThroughput(512*1024, params)
	ratio := nodeT / lanT
	t2.AddRow("512KB", fmt.Sprintf("%.1f Mb/s", lanT), fmt.Sprintf("%.1f Mb/s", nodeT),
		fmt.Sprintf("%.1f Mb/s", cabT), fmt.Sprintf("%.1fx", ratio))
	if ratio < 5 || cabT/lanT < 10 {
		pass = false
	}

	return &Result{
		ID: "E5", Title: "Order-of-magnitude improvement over current LANs",
		Tables: []*trace.Table{t, t2},
		Notes: []string{
			"the LAN node stack and the Nectar node both model 1988 UNIX software costs; Nectar wins by off-loading protocol processing to the CAB and by the faster wire",
		},
		Pass: pass,
	}
}

// E6MultiHub reproduces §4(3) and Figure 4: "Because of the low switching
// and transfer latency of a single HUB, the latency of process to process
// communication in a multi-HUB system is not significantly higher." Latency
// vs hop count on a line of HUB clusters, for the circuit-switched and
// packet-switched datalink.
func E6MultiHub() *Result {
	t := trace.NewTable("Multi-HUB latency vs. hop count (paper Figure 4, section 4)",
		"hubs on path", "packet-switched 64B", "circuit-switched 4KB", "added per hub")
	params := core.DefaultParams()
	var prev sim.Time
	var perHop sim.Time
	pass := true
	for hops := 1; hops <= 6; hops++ {
		sys := core.New(core.Line(hops, 1), core.WithParams(params))
		// CAB 0 on hub 0, CAB hops-1 on the last hub.
		dst := hops - 1
		var pkt, circ sim.Time
		if dst == 0 {
			dst = 1
			sys = core.New(core.Line(1, 2), core.WithParams(params))
		}
		pkt = datagramLatencyOn(sys, 0, dst, 64)

		sys2 := core.New(core.Line(hops, 1), core.WithParams(params))
		if hops == 1 {
			sys2 = core.New(core.Line(1, 2), core.WithParams(params))
		}
		circ = datagramLatencyOn(sys2, 0, dst, 4096)

		added := sim.Time(0)
		if hops > 1 {
			added = pkt - prev
		}
		prev = pkt
		if hops > 1 {
			perHop = added
		}
		t.AddRow(hops, pkt, circ, added)
	}
	// The per-hop increment must be small relative to the one-hop total
	// (the paper's "not significantly higher").
	one := datagramLatencyOn(core.New(core.Line(1, 2)), 0, 1, 64)
	if perHop > one/5 {
		pass = false
	}
	return &Result{
		ID: "E6", Title: "Multi-HUB systems: latency vs. hops",
		Tables: []*trace.Table{t},
		Notes:  []string{fmt.Sprintf("per-hop cost %v vs one-hop total %v", perHop, one)},
		Pass:   pass,
	}
}

// datagramLatencyOn measures a one-shot datagram between two CABs of an
// existing system.
func datagramLatencyOn(sys *core.System, src, dst, size int) sim.Time {
	return transferOn(sys, src, dst, size, false)
}

// E7Multicast reproduces §4.2.2/§4.2.4: hardware multicast over the
// crossbar tree versus repeated unicast, time to the last delivery.
func E7Multicast() *Result {
	t := trace.NewTable("Multicast vs repeated unicast, 512B payload (paper sections 4.2.2, 4.2.4)",
		"destinations", "multicast (circuit)", "k unicasts", "speedup")
	pass := true
	for _, k := range []int{2, 4, 8} {
		multi := multicastTime(k, true)
		uni := multicastTime(k, false)
		sp := float64(uni) / float64(multi)
		t.AddRow(k, multi, uni, fmt.Sprintf("%.2fx", sp))
		if k >= 4 && sp <= 1.5 {
			pass = false
		}
	}
	return &Result{
		ID: "E7", Title: "Hardware multicast",
		Tables: []*trace.Table{t},
		Notes:  []string{"multicast sends one copy that fans out in the crossbar; unicast serializes k copies on the sender's fiber"},
		Pass:   pass,
	}
}

// multicastTime measures time from send start to the LAST destination's
// datalink delivery, for k destinations on one HUB.
func multicastTime(k int, useMulticast bool) sim.Time {
	sys := core.New(core.SingleHub(k + 1))
	var last sim.Time
	remaining := k
	for i := 1; i <= k; i++ {
		st := sys.CAB(i)
		st.DL.SetReceiver(func(p []byte, _ *trace.Span) {
			last = st.Kernel.Engine().Now()
			remaining--
		})
	}
	payload := make([]byte, 512)
	dsts := make([]int, k)
	for i := range dsts {
		dsts[i] = i + 1
	}
	var start sim.Time
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		start = th.Proc().Now()
		if useMulticast {
			sys.CAB(0).DL.SendMulticastCircuit(th, dsts, payload)
		} else {
			for _, d := range dsts {
				sys.CAB(0).DL.SendCircuit(th, d, payload)
			}
		}
	})
	sys.Run()
	if remaining != 0 {
		return 0
	}
	return last - start
}

// E8Transports reproduces §6.2.2: the three transport protocols, their
// round-trip/one-way cost and their behavior under loss.
func E8Transports() *Result {
	params := core.DefaultParams()
	t := trace.NewTable("Transport protocols, one HUB (paper section 6.2.2)",
		"protocol", "metric", "value")

	dg := cabLatencyOneWay(64, params)
	t.AddRow("datagram", "one-way 64B", dg)

	st := transferOn(core.New(core.SingleHub(2)), 0, 1, 64, true)
	t.AddRow("byte-stream", "one-way 64B (incl. delivery)", st)

	rr := echoRTT(64, false)
	t.AddRow("request-response", "RTT 64B echo", rr)

	thr := streamThroughput(512*1024, params)
	t.AddRow("byte-stream", "bulk throughput", fmt.Sprintf("%.1f Mb/s", thr))

	// Loss behavior: with injected errors, the datagram protocol loses
	// messages while the byte stream delivers everything intact.
	dgGot, stGot, sent := lossComparison()
	t2 := trace.NewTable("Behavior under fiber error injection (BER 2e-5)",
		"protocol", "sent", "delivered intact", "note")
	t2.AddRow("datagram", sent, dgGot, "losses tolerated by design")
	t2.AddRow("byte-stream", sent, stGot, "retransmission recovers all")

	pass := stGot == sent && dgGot <= sent && rr < 200*sim.Microsecond
	return &Result{
		ID: "E8", Title: "Datagram, byte-stream, request-response",
		Tables: []*trace.Table{t, t2},
		Pass:   pass,
	}
}

// echoRTT measures one echo round trip of size bytes against a server on
// the other CAB of a HUB: a request-response, or a VMTP transaction.
func echoRTT(size int, vmtp bool) sim.Time {
	sys := core.New(core.SingleHub(2))
	srv := sys.CAB(1)
	mb := srv.Kernel.NewMailbox("srv", 4<<20)
	srv.TP.Register(7, mb)
	srv.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := mb.Get(th)
			if vmtp {
				srv.TP.VRespond(th, req, req.Bytes())
			} else {
				srv.TP.Respond(th, req, req.Bytes())
			}
			mb.Release(req)
		}
	})
	var rtt sim.Time
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		start := th.Proc().Now()
		var err error
		if vmtp {
			_, err = sys.CAB(0).TP.VTransact(th, 1, 7, 3, make([]byte, size))
		} else {
			_, err = sys.CAB(0).TP.Request(th, 1, 7, 3, make([]byte, size))
		}
		if err != nil {
			panic(err)
		}
		rtt = th.Proc().Now() - start
	})
	sys.Run()
	return rtt
}

// lossComparison sends the same workload over datagram and byte-stream
// with error injection and counts intact deliveries.
func lossComparison() (dgGot, stGot, sent int) {
	const n = 40
	sent = n
	payload := bytes.Repeat([]byte{0xA7}, 900)

	run := func(stream bool) int {
		params := core.DefaultParams()
		params.Topo.Errors = fiber.ErrorModel{BitErrorRate: 2e-5, Seed: 31}
		sys := core.New(core.SingleHub(2), core.WithParams(params))
		rx := sys.CAB(1)
		mb := rx.Kernel.NewMailbox("in", 2*1024*1024)
		rx.TP.Register(1, mb)
		got := 0
		rx.Kernel.SpawnDaemon("rx", func(th *kernel.Thread) {
			for {
				msg := mb.Get(th)
				if bytes.Equal(msg.Bytes(), payload) {
					got++
				}
				mb.Release(msg)
			}
		})
		sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
			for i := 0; i < n; i++ {
				if stream {
					sys.CAB(0).TP.StreamSend(th, 1, 1, 0, payload)
				} else {
					sys.CAB(0).TP.SendDatagram(th, 1, 1, 0, payload)
				}
			}
		})
		sys.Run()
		return got
	}
	return run(false), run(true), sent
}
