package transport_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/transport"
)

// vmtpServer runs an echo-style VMTP server that doubles each byte.
func vmtpServer(sys *core.System, cabID int, box uint16) {
	srv := sys.CAB(cabID)
	mb := srv.Kernel.NewMailbox("vmtp-srv", 4<<20)
	srv.TP.Register(box, mb)
	srv.Kernel.SpawnDaemon("vmtp-server", func(th *kernel.Thread) {
		for {
			req := mb.Get(th)
			body := req.Bytes()
			out := make([]byte, len(body))
			for i, b := range body {
				out[i] = b * 2
			}
			srv.TP.VRespond(th, req, out)
			mb.Release(req)
		}
	})
}

func TestVMTPSmallTransaction(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	vmtpServer(sys, 1, 7)
	var resp []byte
	var err error
	var rtt sim.Time
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		start := th.Proc().Now()
		resp, err = sys.CAB(0).TP.VTransact(th, 1, 7, 3, []byte{1, 2, 3})
		rtt = th.Proc().Now() - start
	})
	sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte{2, 4, 6}) {
		t.Fatalf("resp %v", resp)
	}
	if rtt > 100*sim.Microsecond {
		t.Fatalf("small transaction RTT %v", rtt)
	}
	t.Logf("VMTP small RTT: %v", rtt)
}

func TestVMTPLargeGroupBothWays(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	vmtpServer(sys, 1, 7)
	req := payload(20 * 1000) // ~21 packets each way
	var resp []byte
	var err error
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		resp, err = sys.CAB(0).TP.VTransact(th, 1, 7, 3, req)
	})
	sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(req) {
		t.Fatalf("resp %d bytes, want %d", len(resp), len(req))
	}
	for i := range req {
		if resp[i] != req[i]*2 {
			t.Fatalf("byte %d wrong", i)
		}
	}
}

func TestVMTPTransactionTooLarge(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	var err error
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		_, err = sys.CAB(0).TP.VTransact(th, 1, 7, 3, make([]byte, transport.MaxTransaction+1))
	})
	sys.Run()
	if err == nil {
		t.Fatal("oversized transaction accepted")
	}
}

func TestVMTPSelectiveRetransmissionUnderLoss(t *testing.T) {
	params := core.DefaultParams()
	params.Topo.Errors = fiber.ErrorModel{BitErrorRate: 2e-5, Seed: 4242}
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	vmtpServer(sys, 1, 7)
	req := payload(25 * 1000)
	completed := 0
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		for i := 0; i < 10; i++ {
			resp, err := sys.CAB(0).TP.VTransact(th, 1, 7, 3, req)
			if err != nil {
				continue
			}
			if len(resp) != len(req) {
				t.Errorf("transaction %d: %d bytes", i, len(resp))
			}
			completed++
		}
	})
	sys.Run()
	if completed < 9 {
		t.Fatalf("only %d/10 transactions completed under loss", completed)
	}
	st := sys.CAB(0).TP.Stats()
	t.Logf("completed=%d client-rtx-rounds=%d", completed, st.Retransmits)
}

func TestVMTPAtMostOnce(t *testing.T) {
	params := core.DefaultParams()
	params.Topo.Errors = fiber.ErrorModel{BitErrorRate: 3e-5, Seed: 9}
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	srv := sys.CAB(1)
	mb := srv.Kernel.NewMailbox("vmtp-srv", 4<<20)
	srv.TP.Register(7, mb)
	executions := 0
	srv.Kernel.SpawnDaemon("vmtp-server", func(th *kernel.Thread) {
		for {
			req := mb.Get(th)
			executions++
			srv.TP.VRespond(th, req, []byte("done"))
			mb.Release(req)
		}
	})
	const n = 20
	completed := 0
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		for i := 0; i < n; i++ {
			if _, err := sys.CAB(0).TP.VTransact(th, 1, 7, 3, payload(5000)); err == nil {
				completed++
			}
		}
	})
	sys.Run()
	if executions > n {
		t.Fatalf("%d executions for %d transactions", executions, n)
	}
	if completed < n*8/10 {
		t.Fatalf("only %d/%d completed", completed, n)
	}
}

// TestVMTPBeatsGoBackNUnderLoss compares wire efficiency: for the same
// lossy transfer, VMTP's selective retransmission should retransmit fewer
// packets than the byte stream's go-back-N.
func TestVMTPBeatsGoBackNUnderLoss(t *testing.T) {
	const total = 28 * 1000
	lossy := func() core.Params {
		p := core.DefaultParams()
		p.Topo.Errors = fiber.ErrorModel{BitErrorRate: 4e-5, Seed: 77}
		return p
	}

	// VMTP path.
	sysV := core.New(core.SingleHub(2), core.WithParams(lossy()))
	vmtpServer(sysV, 1, 7)
	sysV.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		sysV.CAB(0).TP.VTransact(th, 1, 7, 3, payload(total))
	})
	sysV.Run()
	vmtpPackets := sysV.CAB(0).DL.Stats().PacketsSent

	// Go-back-N stream path.
	sysS := core.New(core.SingleHub(2), core.WithParams(lossy()))
	rx := sysS.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 4<<20)
	rx.TP.Register(1, mb)
	rx.Kernel.Spawn("rx", func(th *kernel.Thread) {
		msg := mb.Get(th)
		mb.Release(msg)
	})
	sysS.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		sysS.CAB(0).TP.StreamSend(th, 1, 1, 0, payload(total))
	})
	sysS.Run()
	streamPackets := sysS.CAB(0).DL.Stats().PacketsSent

	minPackets := int64((total + transport.MaxData - 1) / transport.MaxData)
	t.Logf("packets sent for %dB under loss: VMTP=%d stream(go-back-N)=%d (minimum %d)",
		total, vmtpPackets, streamPackets, minPackets)
	if vmtpPackets > streamPackets {
		t.Fatalf("selective retransmission sent MORE packets (%d) than go-back-N (%d)",
			vmtpPackets, streamPackets)
	}
}

// TestVMTPGroupTimeoutPermanentLoss drowns the server's access fiber in
// corruption for the whole run: the multi-packet request group never
// completes, so the server's group timer fires and NACKs repeatedly, the
// client's selective retransmissions keep dying, and VTransact must give
// up with ErrTimeout after its bounded retries instead of hanging.
func TestVMTPGroupTimeoutPermanentLoss(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	vmtpServer(sys, 1, 7)

	// ~12% packet survival at 1 KB packets: enough stragglers get through
	// to open a partial group and arm its gap timer, but a 20-packet group
	// has no realistic chance of ever assembling.
	in, out := sys.Net.CABLinks(1)
	in.SetErrorModel(fiber.ErrorModel{BitErrorRate: 2e-3, Seed: 77})
	out.SetErrorModel(fiber.ErrorModel{BitErrorRate: 2e-3, Seed: 78})

	var err error
	done := false
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		_, err = sys.CAB(0).TP.VTransact(th, 1, 7, 3, payload(20*1000))
		done = true
	})
	// The server's NACK timer re-arms while its group stays incomplete,
	// so drive with a horizon rather than running to quiescence; the
	// client's eight backed-off retries end well inside it.
	sys.RunUntil(sim.Second)
	if !done {
		t.Fatal("VTransact hung after permanent packet loss")
	}
	if _, ok := err.(*transport.ErrTimeout); !ok {
		t.Fatalf("error = %v (%T), want *transport.ErrTimeout", err, err)
	}
	if acks := sys.CAB(1).TP.Stats().AcksSent; acks == 0 {
		t.Fatal("server group timer never fired (no selective NACKs sent)")
	}
	if rtx := sys.CAB(0).TP.Stats().Retransmits; rtx == 0 {
		t.Fatal("client never retransmitted before giving up")
	}
}
