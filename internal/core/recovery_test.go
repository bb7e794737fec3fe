package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/hub"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestSupervisorFaultRecovery exercises the §4(4) claim that "HUB commands
// can be used to implement various network management functions such as
// testing, reconfiguration, and recovery from hardware failures": a port
// is disabled mid-traffic (simulating a fault), reliable traffic stalls
// and retransmits, an operator CAB re-enables the port with a supervisor
// command, and the byte stream completes with the data intact.
func TestSupervisorFaultRecovery(t *testing.T) {
	sys := core.New(core.SingleHub(3))
	rx := sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 1<<20)
	rx.TP.Register(1, mb)

	var gotLen int
	var doneAt sim.Time
	rx.Kernel.Spawn("rx", func(th *kernel.Thread) {
		msg := mb.Get(th)
		gotLen = msg.Len
		doneAt = th.Proc().Now()
		mb.Release(msg)
	})

	data := make([]byte, 60*1000)
	for i := range data {
		data[i] = byte(i * 11)
	}
	var sendErr error
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		sendErr = sys.CAB(0).TP.StreamSend(th, 1, 1, 0, data)
	})

	// The "fault": at t=0.3ms an operator disables the receiver's HUB
	// port (CAB 1's acknowledgments are black-holed, so the reliable
	// stream stalls), then repairs it at t=20ms with supervisor commands
	// from CAB 2.
	operator := sys.CAB(2)
	victimPort := byte(sys.Net.PortOf(1))
	hubID := sys.Net.Hub(0).ID()
	supCmd := func(op hub.Opcode, param byte) *fiber.Item {
		return &fiber.Item{
			Kind:    fiber.KindCommand,
			Cmd:     fiber.Command{Op: byte(op), Hub: hubID, Param: param},
			ReplyTo: operator.Board,
		}
	}
	sys.Eng.At(300*sim.Microsecond, func() {
		operator.Board.Send(supCmd(hub.SupDisablePort, victimPort))
	})
	sys.Eng.At(20*sim.Millisecond, func() {
		operator.Board.Send(
			supCmd(hub.SupResetPort, victimPort),
			supCmd(hub.SupEnablePort, victimPort),
		)
	})

	sys.Run()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if gotLen != len(data) {
		t.Fatalf("delivered %d bytes, want %d", gotLen, len(data))
	}
	if doneAt < 20*sim.Millisecond {
		t.Fatalf("transfer finished at %v, before the repair", doneAt)
	}
	if err := sys.Net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The hardware flow control (test-open parked on the dead port) stalls
	// the sender cleanly instead of spraying data into the void, so little
	// or no retransmission is needed — the outage costs time, not packets.
	t.Logf("outage survived: %d retransmission rounds, %d drops at the dead port, completed at %v",
		sys.CAB(0).TP.Stats().Retransmits,
		sys.Net.Hub(0).Port(sys.Net.PortOf(1)).Drops(), doneAt)
}

// TestLinkFailureReroutingAutomatic: traffic between mesh corners survives
// a physically severed inter-HUB link with no manual steps — the test never
// touches routing state. The datalink probe layer must notice the dark
// fiber, fail the route, and flush route caches by itself (regression test
// for the automatic detection path; the operator-driven alternative is
// TestLinkFailureReroutingOperator below).
func TestLinkFailureReroutingAutomatic(t *testing.T) {
	params := core.DefaultParams()
	params.Datalink.ProbeInterval = 200 * sim.Microsecond
	params.Metrics = true
	sys := core.New(core.Mesh(2, 2, 1), core.WithParams(params))
	rx := sys.CAB(3)
	mb := rx.Kernel.NewMailbox("in", 1<<20)
	rx.TP.Register(1, mb)

	received := 0
	rx.Kernel.SpawnDaemon("rx", func(th *kernel.Thread) {
		for {
			msg := mb.Get(th)
			received++
			mb.Release(msg)
		}
	})

	const msgs = 20
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		for i := 0; i < msgs; i++ {
			if err := sys.CAB(0).TP.StreamSend(th, 3, 1, 0, make([]byte, 2000)); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})

	// Mid-transfer, physically sever the link the current route uses.
	// Nothing else: detection and rerouting are the system's job.
	sys.Eng.At(2*sim.Millisecond, func() {
		route, err := sys.Net.Route(0, 3)
		if err != nil {
			t.Errorf("route: %v", err)
			return
		}
		via := route[1].HubID
		var mid int
		for i, h := range sys.Net.Hubs() {
			if h.ID() == via {
				mid = i
			}
		}
		sys.Net.SetLinkPhysical(0, mid, false)
	})

	sys.RunUntil(100 * sim.Millisecond)
	if received != msgs {
		t.Fatalf("received %d/%d across the failure", received, msgs)
	}
	if got := sys.Reg.Counter("net.links_failed").Value(); got == 0 {
		t.Fatal("probe layer never failed the severed link")
	}
	if err := sys.Net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLinkFailureReroutingOperator: the explicit operator-driven recovery
// path (paper §4: reconfiguration and recovery) — probing disabled, the
// operator marks the link down and flushes every CAB's routes by hand.
func TestLinkFailureReroutingOperator(t *testing.T) {
	sys := core.New(core.Mesh(2, 2, 1))
	rx := sys.CAB(3)
	mb := rx.Kernel.NewMailbox("in", 1<<20)
	rx.TP.Register(1, mb)

	received := 0
	rx.Kernel.SpawnDaemon("rx", func(th *kernel.Thread) {
		for {
			msg := mb.Get(th)
			received++
			mb.Release(msg)
		}
	})

	const msgs = 20
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		for i := 0; i < msgs; i++ {
			if err := sys.CAB(0).TP.StreamSend(th, 3, 1, 0, make([]byte, 2000)); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})

	// Mid-transfer, fail the link the current route uses and reroute.
	sys.Eng.At(2*sim.Millisecond, func() {
		route, err := sys.Net.Route(0, 3)
		if err != nil {
			t.Errorf("route: %v", err)
			return
		}
		via := route[1].HubID
		var mid int
		for i, h := range sys.Net.Hubs() {
			if h.ID() == via {
				mid = i
			}
		}
		// Operator action: mark the link down, flush every CAB's routes.
		sys.Net.SetLinkState(0, mid, false)
		for _, st := range sys.CABs {
			st.DL.FlushRoutes()
		}
	})

	sys.Run()
	if received != msgs {
		t.Fatalf("received %d/%d across the failure", received, msgs)
	}
	if err := sys.Net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
