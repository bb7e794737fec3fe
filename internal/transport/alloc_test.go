package transport_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/transport"
)

// warmRounds warms an allocation test past the frame store's body
// quarantine: in a test binary a released body waits behind 64 others
// before it is reused, and the quarantine's own ring grows while it fills.
// testing.AllocsPerRun truncates its mean, so those one-off allocations
// could otherwise hide a steady one.
const warmRounds = 70

// datagramAllocs is what one 64-byte datagram costs from SendDatagram to
// the receiver's mailbox on one HUB, with no instrumentation. The receive
// path between the fiber and the mailbox allocates nothing of its own: each
// receive stage takes its packet from a FIFO with a method bound once, and
// the decoded header lives on the stack, the frame (its test open, packet
// and close all, and the datalink's copy of the wire) comes back to the
// system's frame store once the receiver has consumed it, and the sender's
// wire and the receiving transport's copy come back once each is done with.
// One allocation remains: the Message the receiving mailbox reserves. A per-packet closure in a receive stage, a heap header, an item
// allocated on its own, or a frame or wire that is not reused shows up here
// (10 before they went, 3 while every frame was new, 2 while every wire
// was).
const datagramAllocs = 1

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
	for range warmRounds { // the engine's event pool, the FIFOs, the stores and the route cache
		round()
	}
	if got := testing.AllocsPerRun(100, round); got > datagramAllocs {
		t.Fatalf("%v allocations per delivered datagram, want <= %d", got, datagramAllocs)
	}
	if delivered != warmRounds+101 {
		t.Fatalf("%d datagrams delivered, want %d", delivered, warmRounds+101)
	}
}

// requestAllocs is what a warmed 64-byte Request and its Respond cost on one
// HUB, with no instrumentation. Timers belong to the threads that arm them,
// Cond waiters are the threads' own, the pending request holds its Cond by
// value, the pendingReq itself is reused from the transport's free list and
// each direction's frame from the frame store, and every wire is built in a
// body from the store. Three allocations remain: the body the server's
// at-most-once table keeps the response's data in, the server mailbox's
// Message and the client's copy of the response (15 while timers, Conds and
// frame items were allocated per use, 7 while each request made its own
// pendingReq, 6 while every frame was new, 4 while every wire was). The
// kept body stays a new one here: the test's 171 round trips, warm-up
// included, never fill the 256-answer table, so no answer is evicted and
// no kept body comes back.
const requestAllocs = 3

func TestRequestRoundTripAllocations(t *testing.T) {
	resp, data := make([]byte, 64), make([]byte, 64)
	got := roundTripAllocs(t, len(resp),
		func(srv *core.CABStack, th *kernel.Thread, req *kernel.Message) error {
			return srv.TP.Respond(th, req, resp)
		},
		func(cl *core.CABStack, th *kernel.Thread) ([]byte, error) {
			return cl.TP.Request(th, 1, 1, 2, data)
		})
	if got > requestAllocs {
		t.Fatalf("%v allocations per request round trip, want <= %d", got, requestAllocs)
	}
}

// VMTP transactions on one HUB, warmed, with no instrumentation. A
// one-packet group is complete on arrival, so neither end makes a group, a
// segment map, a closure or a gap timer, the client's vmtpPending comes off
// the free list, every frame comes back to the frame store, and each group
// packet is encoded in a body from the store as it is sent. Three
// allocations remain, as for a request: the body the server's at-most-once
// table keeps the response's data in (a new one while the table fills; see
// requestAllocs), the server mailbox's Message and the client's one copy of
// the response (22 while every group went through map-based reassembly, 8
// while every frame was new, 6 while the sender kept its group's wires). A
// 3-packet response costs no more: the buffer it is reassembled into is the
// response, in place of the one-packet copy (28 with map-based reassembly,
// 12 with new frames, 8 with kept wires).
const (
	vtransactAllocs      = 3
	vtransact3PktsAllocs = 3
)

func TestVTransactRoundTripAllocations(t *testing.T) {
	for _, tc := range []struct {
		name     string
		respSize int
		want     float64
	}{
		{"one-packet", 256, vtransactAllocs},
		{"three-packet-response", 2*transport.MaxData + 256, vtransact3PktsAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := make([]byte, tc.respSize), make([]byte, 64)
			got := roundTripAllocs(t, len(resp),
				func(srv *core.CABStack, th *kernel.Thread, req *kernel.Message) error {
					return srv.TP.VRespond(th, req, resp)
				},
				func(cl *core.CABStack, th *kernel.Thread) ([]byte, error) {
					return cl.TP.VTransact(th, 1, 1, 2, data)
				})
			if got > tc.want {
				t.Fatalf("%v allocations per transaction, want <= %v", got, tc.want)
			}
		})
	}
}

// roundTripAllocs is what one warmed client call costs on one HUB, against
// a server on CAB 1 that answers each message in its mailbox 1 with
// respond. Every call must return wantLen bytes.
func roundTripAllocs(t *testing.T, wantLen int,
	respond func(srv *core.CABStack, th *kernel.Thread, req *kernel.Message) error,
	call func(cl *core.CABStack, th *kernel.Thread) ([]byte, error)) float64 {
	t.Helper()
	sys := core.New(core.SingleHub(2))
	cl, srv := sys.CAB(0), sys.CAB(1)
	mb := srv.Kernel.NewMailbox("req", 64<<10)
	srv.TP.Register(1, mb)
	srv.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := mb.Get(th)
			if err := respond(srv, th, req); err != nil {
				t.Errorf("respond: %v", err)
			}
			mb.Release(req)
		}
	})
	start := cl.Kernel.NewSem(0)
	answered := 0
	cl.Kernel.SpawnDaemon("client", func(th *kernel.Thread) {
		for {
			start.P(th)
			got, err := call(cl, th)
			if err != nil || len(got) != wantLen {
				t.Errorf("call: %d bytes, %v", len(got), err)
			}
			answered++
		}
	})
	round := func() {
		start.V()
		sys.Run()
	}
	for range warmRounds { // the engine's event pool, the FIFOs, maps, free lists, stores and route cache
		round()
	}
	allocs := testing.AllocsPerRun(100, round)
	if answered != warmRounds+101 {
		t.Fatalf("%d calls answered, want %d", answered, warmRounds+101)
	}
	return allocs
}

// streamMsgAllocs is what a warmed 64 KB StreamSend costs on one HUB, with
// no instrumentation: 67 data packets and their acks, every wire, every
// datalink copy and every received copy built in a body from the system's
// store and given back by the layer that took it. What remains
// is per message, not per packet: the Message the receiving mailbox reserves
// (135 while every wire was a new allocation).
const streamMsgAllocs = 1

func TestStreamMessageAllocations(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	tx, rx := sys.CAB(0), sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 256<<10)
	rx.TP.Register(2, mb)
	delivered := 0
	rx.Kernel.SpawnDaemon("receiver", func(th *kernel.Thread) {
		for {
			mb.Release(mb.Get(th))
			delivered++
		}
	})
	data := make([]byte, 64<<10)
	send := tx.Kernel.NewSem(0)
	tx.Kernel.SpawnDaemon("sender", func(th *kernel.Thread) {
		for {
			send.P(th)
			if err := tx.TP.StreamSend(th, 1, 2, 5, data); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	round := func() {
		send.V()
		sys.Run()
	}
	for range 2 { // more than the quarantine's worth of bodies, each way
		round()
	}
	if got := testing.AllocsPerRun(20, round); got > streamMsgAllocs {
		t.Fatalf("%v allocations per 64 KB stream message, want <= %d", got, streamMsgAllocs)
	}
	if delivered != 23 {
		t.Fatalf("%d messages delivered, want 23", delivered)
	}
}

// TestCircuitWiresLeaveNoBodyOut sends datagrams whose wires (992 bytes of
// data and the 32-byte header) are too large for packet switching but fit
// the largest store body. A circuit holds its wire by reference and never
// gives it back, so such a wire must not be a store body, or the store
// counts it as out for good.
func TestCircuitWiresLeaveNoBodyOut(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	tx, rx := sys.CAB(0), sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 64<<10)
	rx.TP.Register(1, mb)
	var got [][]byte
	rx.Kernel.SpawnDaemon("receiver", func(th *kernel.Thread) {
		for {
			m := mb.Get(th)
			got = append(got, bytes.Clone(m.Bytes()))
			mb.Release(m)
		}
	})
	const n = 3
	data := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 992) }
	tx.Kernel.Spawn("sender", func(th *kernel.Thread) {
		for i := range n {
			if err := tx.TP.SendDatagram(th, 1, 1, 9, data(i)); err != nil {
				t.Errorf("datagram %d: %v", i, err)
			}
		}
	})
	sys.Run()
	if len(got) != n {
		t.Fatalf("%d datagrams delivered, want %d", len(got), n)
	}
	for i, m := range got {
		if !bytes.Equal(m, data(i)) {
			t.Fatalf("datagram %d arrived changed", i)
		}
	}
	if frames, bodies := sys.Net.Frames().Out(); frames != 0 || bodies != 0 {
		t.Fatalf("%d frames and %d bodies out after every datagram arrived, want 0 and 0", frames, bodies)
	}
}
