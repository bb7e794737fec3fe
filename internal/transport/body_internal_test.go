package transport

import (
	"bytes"
	"testing"

	"repro/internal/datalink"
	"repro/internal/fiber"
	"repro/internal/hub"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// TestEncodeIntoReusedBody pins the checksum field of a reused body: a
// body still holds the bytes of its last wire, its old checksum among them,
// and encodeInto must build exactly the wire Encode builds in fresh memory.
// A body of 0xFF bytes alone would not show a stale field: 0xFFFF is zero to
// a ones'-complement sum. So the bodies are also filled with 0x5A, and with
// the last wire built in them.
func TestEncodeIntoReusedBody(t *testing.T) {
	data := make([]byte, MaxData)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for _, deadline := range []sim.Time{0, 3 * sim.Millisecond} {
		h := &Header{
			Proto: ProtoStream, Class: ClassBulk, Src: 1, Dst: 2, SrcBox: 3, DstBox: 4,
			MsgID: 5, Seq: 6, Total: MaxData, Offset: 7, Deadline: deadline,
		}
		var last []byte
		for n := 0; n <= MaxData; n++ {
			want := Encode(h, data[:n])
			for _, b := range []struct {
				fill string
				body []byte
			}{
				{"0xFF", bytes.Repeat([]byte{0xFF}, len(want))},
				{"0x5A", bytes.Repeat([]byte{0x5A}, len(want))},
				{"the last wire", append(last, make([]byte, len(want)-len(last))...)},
			} {
				if got := encodeInto(b.body, h, data[:n]); !bytes.Equal(got, want) {
					t.Fatalf("deadline %v, %d-byte payload, body of %s:\n got  %x\n want %x",
						deadline, n, b.fill, got[:HeaderSize], want[:HeaderSize])
				}
			}
			last = want
			h.Seq++
		}
	}
}

// TestResentResponseOutlivesItsDelivery covers the excluded side of
// Header.pooled: a response is kept by the server's at-most-once table after
// the client has received it, so the client must not give its body back. A
// duplicate of the answered request makes the server resend the kept wire,
// which must still decode, intact, at the client.
func TestResentResponseOutlivesItsDelivery(t *testing.T) {
	r := newVMTPRig()
	cl, srv := r.tp[0], r.tp[1]
	answer := bytes.Repeat([]byte("answer"), 20)
	srv.k.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := r.mb.Get(th)
			if err := srv.Respond(th, req, answer); err != nil {
				t.Errorf("respond: %v", err)
			}
			r.mb.Release(req)
		}
	})
	var arrived [][]byte // every wire the client's datalink delivers, as it arrived
	cl.dl.SetOwningReceiver(func(wire []byte, sp *trace.Span, sole bool) {
		arrived = append(arrived, bytes.Clone(wire))
		cl.handlePacket(wire, sp, sole)
	})
	data := make([]byte, 64)
	cl.k.Spawn("client", func(th *kernel.Thread) {
		got, err := cl.Request(th, 1, 7, 2, data)
		if err != nil || !bytes.Equal(got, answer) {
			t.Errorf("request: %q, %v", got, err)
		}
		// A duplicate of the answered request, as a retransmission that
		// crossed the answer would arrive.
		dup := Encode(&Header{
			Proto: ProtoRequest, Src: 0, Dst: 1, SrcBox: 2, DstBox: 7,
			MsgID: 1, Total: uint32(len(data)),
		}, data)
		if err := cl.dl.SendPacket(th, 1, dup); err != nil {
			t.Errorf("duplicate: %v", err)
		}
	})
	r.eng.Run()
	if srv.stats.DupRequests != 1 || len(arrived) != 2 {
		t.Fatalf("%d duplicate requests at the server, %d wires at the client; want 1 and 2",
			srv.stats.DupRequests, len(arrived))
	}
	if cl.stats.ChecksumDrops != 0 {
		t.Fatalf("%d checksum drops at the client: the kept response was reused", cl.stats.ChecksumDrops)
	}
	for i, wire := range arrived {
		h, payload, err := Decode(wire)
		if err != nil || h.Proto != ProtoResponse || !bytes.Equal(payload, answer) {
			t.Fatalf("wire %d: %v %v %q, want the response %q", i, h.Proto, err, payload, answer)
		}
	}
}

// TestFannedOutWireStaysWithItsReaders covers a pooled unicast wire that
// reaches two CABs. A frame from CAB 0 to CAB 1 whose close all is lost to
// a dark fiber leaves CAB 0's HUB input connected to CAB 1's output, so the
// HUB sends CAB 0's next packet, a datagram to CAB 2, to CAB 1 as well; the
// two copies share one body. (A damaged close all does not do this: the
// HUB still recognizes it and closes the route.) CAB 1's copy is held back while CAB 2 receives
// and releases the bodies of more datagrams than the test build's
// quarantine holds (64), so a body released with the shared one would have
// left the quarantine and been rebuilt, as a production store rebuilds it at
// once. Neither receiver may give the shared body back: CAB 1 must find its
// copy unchanged and drop it as misdelivered, and the store must hand out
// no body twice.
func TestFannedOutWireStaysWithItsReaders(t *testing.T) {
	eng := sim.NewEngine()
	net := topo.Single(3).Build(eng, nil)
	var tp [3]*Transport
	var boxes [3]*kernel.Mailbox
	for i := range tp {
		k := kernel.New(net.Board(i))
		tp[i] = New(k, datalink.New(k, net, topo.NewRouter(net, topo.PolicyBFS)), DefaultParams())
		boxes[i] = k.NewMailbox("rx", 1<<20)
		tp[i].Register(7, boxes[i])
	}
	src, by, dst := tp[0], tp[1], tp[2]
	toHub, _ := net.CABLinks(0)
	net.Board(0).Send(&fiber.Item{Kind: fiber.KindCommand, Cmd: fiber.Command{
		Op: byte(hub.OpTestOpenRetry), Hub: net.Hub(0).ID(), Param: byte(net.PortOf(1))}})
	toHub.SetDown(true)
	net.Board(0).Send(&fiber.Item{Kind: fiber.KindCommand, Cmd: fiber.Command{Op: byte(hub.OpCloseAll), Hub: 0xFF}})
	toHub.SetDown(false)
	var held, seen []byte
	var heldSole bool
	by.dl.SetOwningReceiver(func(wire []byte, sp *trace.Span, sole bool) {
		if held != nil {
			t.Errorf("a second wire reached CAB 1")
			return
		}
		held, seen, heldSole = wire, bytes.Clone(wire), sole
	})
	const n = 130
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 40) }
	src.k.Spawn("src", func(th *kernel.Thread) {
		for i := range n {
			if err := src.SendDatagram(th, 2, 7, 3, payload(i)); err != nil {
				t.Errorf("datagram %d: %v", i, err)
			}
		}
	})
	eng.Run()
	if held == nil || heldSole {
		t.Fatalf("CAB 1 got a copy: %v, as its only holder: %v; want a shared copy", held != nil, heldSole)
	}
	if !bytes.Equal(held, seen) {
		t.Fatalf("CAB 1's copy was rebuilt before CAB 1 read it:\n got  %x\n want %x", held, seen)
	}
	by.handlePacket(held, nil, heldSole)
	eng.Run()
	if st := by.stats; st.Misdelivered != 1 || st.DatagramsRecv != 0 || st.ChecksumDrops != 0 || boxes[1].Len() != 0 {
		t.Fatalf("CAB 1: %+v, %d messages; want the copy dropped as misdelivered", st, boxes[1].Len())
	}
	if st := dst.stats; st.DatagramsRecv != n || st.ChecksumDrops != 0 || st.Misdelivered != 0 {
		t.Fatalf("CAB 2: %+v; want %d datagrams", st, n)
	}
	for i := range n {
		m, ok := boxes[2].TryGet()
		if !ok || !bytes.Equal(m.Bytes(), payload(i)) {
			t.Fatalf("datagram %d at CAB 2: %v", i, ok)
		}
		boxes[2].Release(m)
	}
	// A body released twice would sit twice on the free list.
	out := make(map[*byte]bool)
	for range 2 * n {
		b := net.Frames().Body(len(held))
		if p := &b[:1][0]; out[p] {
			t.Fatal("the store handed out one body twice")
		} else {
			out[p] = true
		}
	}
}
