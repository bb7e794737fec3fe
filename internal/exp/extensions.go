package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// X3VMTP previews the paper's stated next step ("we plan to experiment
// with the corresponding Internet protocols (IP, TCP, and VMTP) over
// Nectar in the coming year", §6.2.2): VMTP-style message transactions
// with packet groups and selective retransmission, compared with the
// native request-response and byte-stream protocols.
func X3VMTP() *Result {
	t := trace.NewTable("VMTP transactions over Nectar (paper section 6.2.2 future work)",
		"metric", "request-response", "VMTP", "byte-stream")

	// Small-transaction RTT.
	rrSmall := echoRTT(64, false)
	vSmall := echoRTT(64, true)
	t.AddRow("64B transaction RTT", rrSmall, vSmall, "n/a (one-way)")

	// Large transaction: request-response cannot carry it in one packet;
	// VMTP blasts a packet group.
	vLarge := echoRTT(24*1000, true)
	t.AddRow("24KB transaction RTT", "n/a (>1 packet)", vLarge, "n/a")

	// Wire efficiency under loss: packets sent for the same transfer.
	vPkts, sPkts, minPkts := lossEfficiency()
	t.AddRow("packets for 28KB at BER 4e-5", "-",
		fmt.Sprintf("%d (selective)", vPkts),
		fmt.Sprintf("%d (go-back-N)", sPkts))
	t.AddRow("minimum possible packets", "-", minPkts, minPkts)

	pass := vSmall < 100*sim.Microsecond && vPkts <= sPkts
	return &Result{
		ID: "X3", Title: "Internet-protocol preview: VMTP message transactions",
		Tables: []*trace.Table{t},
		Notes: []string{
			"VMTP packet groups avoid per-packet windowing; selective NACK masks retransmit only what was lost",
		},
		Pass: pass,
	}
}

// lossEfficiency compares packets-on-the-wire for a lossy 28KB transfer.
func lossEfficiency() (vmtpPkts, streamPkts, minPkts int64) {
	const total = 28 * 1000
	lossy := func() core.Params {
		p := core.DefaultParams()
		p.Topo.Errors = fiber.ErrorModel{BitErrorRate: 4e-5, Seed: 77}
		return p
	}
	sysV := core.New(core.SingleHub(2), core.WithParams(lossy()))
	srv := sysV.CAB(1)
	mbV := srv.Kernel.NewMailbox("srv", 4<<20)
	srv.TP.Register(7, mbV)
	srv.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := mbV.Get(th)
			srv.TP.VRespond(th, req, []byte{1})
			mbV.Release(req)
		}
	})
	sysV.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		sysV.CAB(0).TP.VTransact(th, 1, 7, 3, make([]byte, total))
	})
	sysV.Run()
	vmtpPkts = sysV.CAB(0).DL.Stats().PacketsSent

	sysS := core.New(core.SingleHub(2), core.WithParams(lossy()))
	startTransfer(sysS, 0, 1, 1, total, true)
	sysS.Run()
	streamPkts = sysS.CAB(0).DL.Stats().PacketsSent

	minPkts = int64((total + transport.MaxData - 1) / transport.MaxData)
	return
}

// X4DSM measures the shared-virtual-memory workload (§7): page-fault
// latency and protocol traffic, and how fault service scales with sharing.
func X4DSM() *Result {
	t := trace.NewTable("Shared virtual memory over Nectar (paper section 7)",
		"workers", "fault p50", "fault p95", "read/write faults", "invalidations+recalls", "lost updates")
	pass := true
	for _, workers := range []int{2, 4, 6} {
		cfg := apps.DefaultDSMConfig()
		cfg.Workers = workers
		sys := core.New(core.SingleHub(1 + workers))
		res, err := apps.RunDSM(sys, cfg)
		if err != nil {
			pass = false
			continue
		}
		lost := int64(res.CounterExpected) - int64(res.CounterFinal)
		t.AddRow(workers, res.FaultLatency.Median(), res.FaultLatency.Quantile(0.95),
			fmt.Sprintf("%d/%d", res.ReadFaults, res.WriteFaults),
			res.Invalidations+res.Recalls, lost)
		if lost != 0 {
			pass = false
		}
	}
	return &Result{
		ID: "X4", Title: "Shared virtual memory (ownership protocol) over Nectar",
		Tables: []*trace.Table{t},
		Notes: []string{
			"page faults are request-response transactions; write sharing drives invalidations and dirty-page recalls",
			"zero lost updates on the contended counter = the coherence protocol is correct",
		},
		Pass: pass,
	}
}
