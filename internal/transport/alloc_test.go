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
// the decoded header lives on the stack. Three allocations remain: the
// Encode wire, the frame (its test open, packet and close all share one
// array) and the Message the receiving mailbox reserves. A per-packet
// closure in a receive stage, a heap header or an item allocated on its own
// shows up here (10 before they went).
const datagramAllocs = 3

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

// requestAllocs is what a warmed 64-byte Request and its Respond cost on one
// HUB, with no instrumentation. Timers belong to the threads that arm them,
// Cond waiters are the threads' own and the pending request holds its Cond
// by value, so seven allocations remain: per direction the Encode wire and
// the frame, the server mailbox's Message, the client's pendingReq and its
// copy of the response (15 while timers, Conds and frame items were
// allocated per use).
const requestAllocs = 7

func TestRequestRoundTripAllocations(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	cl, srv := sys.CAB(0), sys.CAB(1)
	mb := srv.Kernel.NewMailbox("req", 64<<10)
	srv.TP.Register(1, mb)
	resp := make([]byte, 64)
	srv.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := mb.Get(th)
			if err := srv.TP.Respond(th, req, resp); err != nil {
				t.Errorf("respond: %v", err)
			}
			mb.Release(req)
		}
	})
	data := make([]byte, 64)
	start := cl.Kernel.NewSem(0)
	answered := 0
	cl.Kernel.SpawnDaemon("client", func(th *kernel.Thread) {
		for {
			start.P(th)
			got, err := cl.TP.Request(th, 1, 1, 2, data)
			if err != nil || len(got) != len(resp) {
				t.Errorf("request: %d bytes, %v", len(got), err)
			}
			answered++
		}
	})
	round := func() {
		start.V()
		sys.Run()
	}
	round() // warm the engine's event pool, the FIFOs, maps and route cache
	if got := testing.AllocsPerRun(100, round); got > requestAllocs {
		t.Fatalf("%v allocations per request round trip, want <= %d", got, requestAllocs)
	}
	if answered != 102 {
		t.Fatalf("%d requests answered, want 102", answered)
	}
}
