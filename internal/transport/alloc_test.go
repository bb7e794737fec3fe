package transport_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

// datagramAllocs is what one 64-byte datagram costs from SendDatagram to
// the receiver's mailbox on one HUB, with no instrumentation. The receive
// path between the fiber and the mailbox allocates nothing of its own: each
// receive stage takes its packet from a FIFO with a method bound once, and
// the decoded header lives on the stack. Five allocations remain: the
// Encode wire, the three frame items (test open, packet, close all) and the
// Message the receiving mailbox reserves. A per-packet closure in a receive
// stage, a heap header or a frame slice shows up here (10 before they went).
const datagramAllocs = 5

func TestDatagramReceivePathAllocations(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	tx, rx := sys.CAB(0), sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 64<<10)
	rx.TP.Register(1, mb)
	delivered := 0
	rx.Kernel.SpawnDaemon("receiver", func(th *kernel.Thread) {
		for {
			mb.Release(mb.Get(th))
			delivered++
		}
	})
	data := make([]byte, 64)
	send := tx.Kernel.NewSem(0)
	tx.Kernel.SpawnDaemon("sender", func(th *kernel.Thread) {
		for {
			send.P(th)
			if err := tx.TP.SendDatagram(th, 1, 1, 9, data); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	round := func() {
		send.V()
		sys.Run()
	}
	round() // warm the engine's event pool, the FIFOs and the route cache
	if got := testing.AllocsPerRun(100, round); got > datagramAllocs {
		t.Fatalf("%v allocations per delivered datagram, want <= %d", got, datagramAllocs)
	}
	if delivered != 102 {
		t.Fatalf("%d datagrams delivered, want 102", delivered)
	}
}
