package exp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// X1VLSIScaleUp projects the paper's §3.1 claim that "128 x 128 crossbars
// are possible with custom VLSI": the same architecture with wider
// crossbars, all ports streaming, aggregate bandwidth scaling linearly
// with port count.
func X1VLSIScaleUp() *Result {
	t := trace.NewTable("Crossbar scale-up (paper section 3.1: VLSI projection)",
		"ports", "flows", "aggregate", "per-flow")
	pass := true
	var first float64
	for _, ports := range []int{16, 32, 64, 128} {
		params := core.DefaultParams()
		params.Topo.HubPorts = ports
		n := ports // one CAB per port
		sys := core.New(core.SingleHub(n), core.WithParams(params))
		const per = 128 * 1024
		flows := n / 2
		for i := 0; i < flows; i++ {
			startTransfer(sys, i, flows+i, 1, per, true)
		}
		agg := mbps(flows*per, sys.Run())
		if ports == 16 {
			first = agg
		}
		t.AddRow(fmt.Sprintf("%dx%d", ports, ports), flows,
			fmt.Sprintf("%.0f Mb/s", agg), fmt.Sprintf("%.1f Mb/s", agg/float64(flows)))
		// Linear scaling: 128 ports should deliver ~8x the 16-port figure.
		if ports == 128 && agg < 6*first {
			pass = false
		}
	}
	return &Result{
		ID: "X1", Title: "VLSI crossbar scale-up projection",
		Tables: []*trace.Table{t},
		Notes:  []string{"the crossbar is non-blocking: aggregate bandwidth grows linearly with ports"},
		Pass:   pass,
	}
}

// X2HundredNodes exercises the paper's §8 ambition of "a large-scale
// system with hundreds of nodes in production use": a 5x5 mesh of HUB
// clusters with 4 CABs each (100 CABs, 25 HUBs), uniform random traffic,
// reporting the latency distribution and checking that every message
// arrives and every crossbar stays consistent.
func X2HundredNodes() *Result {
	params := core.DefaultParams()
	sys := core.New(core.Mesh(5, 5, 4), core.WithParams(params))
	n := sys.NumCABs()

	lat := trace.NewHistogram("delivery latency")
	const perCAB = 3
	var delivered int

	// Every CAB runs a receiver; the payload's first 8 bytes carry the
	// send time, so the receiver computes one-way latency directly.
	for i := 0; i < n; i++ {
		rx := sys.CAB(i)
		mb := rx.Kernel.NewMailbox("in", 1<<20)
		rx.TP.Register(1, mb)
		rx.Kernel.SpawnDaemon("rx", func(th *kernel.Thread) {
			for {
				msg := mb.Get(th)
				b := msg.Bytes()
				if len(b) >= 8 {
					sentAt := sim.Time(binary.BigEndian.Uint64(b))
					lat.Add(msg.Arrived - sentAt)
				}
				delivered++
				mb.Release(msg)
			}
		})
	}
	state := uint32(2024)
	next := func(m uint32) uint32 {
		state = state*1664525 + 1013904223
		return (state >> 16) % m
	}
	for i := 0; i < n; i++ {
		st := sys.CAB(i)
		me := i
		dsts := make([]int, perCAB)
		for j := range dsts {
			d := int(next(uint32(n)))
			if d == me {
				d = (d + 1) % n
			}
			dsts[j] = d
		}
		st.Kernel.Spawn("tx", func(th *kernel.Thread) {
			for _, d := range dsts {
				payload := make([]byte, 200)
				binary.BigEndian.PutUint64(payload, uint64(th.Proc().Now()))
				st.TP.StreamSend(th, d, 1, 0, payload)
			}
		})
	}
	sys.Run()

	t := trace.NewTable("100-CAB mesh under uniform random traffic (paper section 8)",
		"metric", "value")
	t.AddRow("HUBs / CABs", fmt.Sprintf("%d / %d", len(sys.Net.Hubs()), n))
	t.AddRow("messages sent / delivered", fmt.Sprintf("%d / %d", n*perCAB, delivered))
	t.AddRow("latency p50", lat.Median())
	t.AddRow("latency p95", lat.Quantile(0.95))
	t.AddRow("latency max", lat.Max())

	consistent := sys.Net.CheckInvariants() == nil
	t.AddRow("crossbar invariants", consistent)

	pass := delivered == n*perCAB && consistent &&
		lat.Quantile(0.95) < sim.Millisecond
	return &Result{
		ID: "X2", Title: "Scaling to hundreds of CABs",
		Tables: []*trace.Table{t},
		Pass:   pass,
	}
}
