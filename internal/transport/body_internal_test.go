package transport

import (
	"bytes"
	"encoding/binary"
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

// recordArrivals makes tp's datalink hand every wire to tp as usual, after
// keeping a copy of it as it arrived in *arrived.
func recordArrivals(tp *Transport, arrived *[][]byte) {
	tp.dl.SetReceiver(func(wire []byte, sp *trace.Span) {
		*arrived = append(*arrived, bytes.Clone(wire))
		tp.handlePacket(wire, sp)
	})
}

// TestResentResponseOutlivesItsDelivery covers a kept answer: the server's
// at-most-once table keeps the response's data after the client has
// received it. A duplicate of the answered request makes the server encode
// the response again, from the data and class it kept and the duplicate's
// header, and the client must receive it intact and equal, byte for byte,
// to the first.
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
	var arrived [][]byte
	recordArrivals(cl, &arrived)
	data := make([]byte, 64)
	cl.k.Spawn("client", func(th *kernel.Thread) {
		got, err := cl.RequestOpts(th, 1, 7, 2, data, SendOpts{Class: ClassCritical})
		if err != nil || !bytes.Equal(got, answer) {
			t.Errorf("request: %q, %v", got, err)
		}
		// A duplicate of the answered request, as a retransmission that
		// crossed the answer would arrive.
		dup := Encode(&Header{
			Proto: ProtoRequest, Class: ClassCritical, Src: 0, Dst: 1, SrcBox: 2, DstBox: 7,
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
		if err != nil || h.Proto != ProtoResponse || h.Class != ClassCritical || !bytes.Equal(payload, answer) {
			t.Fatalf("wire %d: %v %v %v %q, want the critical response %q", i, h.Proto, h.Class, err, payload, answer)
		}
	}
	if !bytes.Equal(arrived[1], arrived[0]) {
		t.Fatalf("resent response differs from the first:\n got  %x\n want %x", arrived[1], arrived[0])
	}
}

// TestNackedResponsePacketIsResentAsSent: the server keeps a VMTP answer's
// data, not its wires, so a NACK of the response makes it encode the missing
// packet again; the client must receive that packet equal, byte for byte, to
// the one first sent.
func TestNackedResponsePacketIsResentAsSent(t *testing.T) {
	r := newVMTPRig()
	cl, srv := r.tp[0], r.tp[1]
	answer := make([]byte, 2*MaxData+100)
	for i := range answer {
		answer[i] = byte(i * 13)
	}
	srv.k.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := r.mb.Get(th)
			if err := srv.VRespond(th, req, answer); err != nil {
				t.Errorf("respond: %v", err)
			}
			r.mb.Release(req)
		}
	})
	var arrived [][]byte
	recordArrivals(cl, &arrived)
	cl.k.Spawn("client", func(th *kernel.Thread) {
		got, err := cl.VTransactOpts(th, 1, 7, 2, make([]byte, 64), SendOpts{Class: ClassBulk})
		if err != nil || !bytes.Equal(got, answer) {
			t.Errorf("transaction: %d bytes, %v", len(got), err)
		}
		// A NACK of the response that names packet 1 missing.
		var mask [4]byte
		binary.BigEndian.PutUint32(mask[:], 0b101)
		nack := Encode(&Header{Proto: ProtoVNack, Src: 0, Dst: 1, SrcBox: 2, MsgID: 1, Seq: 1}, mask[:])
		if err := cl.dl.SendPacket(th, 1, nack); err != nil {
			t.Errorf("nack: %v", err)
		}
	})
	r.eng.Run()
	if len(arrived) != 4 || srv.stats.Retransmits != 1 {
		t.Fatalf("%d wires at the client, %d retransmits at the server; want 4 and 1", len(arrived), srv.stats.Retransmits)
	}
	var first []byte
	for _, wire := range arrived[:3] {
		if h, _, err := Decode(wire); err == nil && h.Proto == ProtoVResp && h.Seq == 1 {
			first = wire
		}
	}
	h, _, err := Decode(arrived[3])
	if first == nil || err != nil || h.Proto != ProtoVResp || h.Class != ClassBulk {
		t.Fatalf("resent wire: %v %v %v; want packet 1 of the bulk response", h.Proto, h.Class, err)
	}
	if !bytes.Equal(arrived[3], first) {
		t.Fatalf("resent packet 1 differs from the first:\n got  %x\n want %x", arrived[3], first)
	}
}

// TestFannedOutWireStaysWithItsReaders covers a unicast packet that reaches
// two CABs. A frame from CAB 0 to CAB 1 whose close all is lost to a dark
// fiber leaves CAB 0's HUB input connected to CAB 1's output, so the HUB
// sends CAB 0's next packet, a datagram to CAB 2, to CAB 1 as well; the two
// copies share the frame's one body. (A damaged close all does not do this:
// the HUB still recognizes it and closes the route.) CAB 1's interrupt level
// is kept busy, so it consumes its copy only after CAB 2 has received and
// consumed the bodies of more datagrams than the test build's quarantine
// holds (64): a body released with CAB 2's copy would have left the
// quarantine and been rebuilt, as a production store rebuilds it at once.
// CAB 1 must find its copy intact and drop it as misdelivered, every frame
// and body must be back in the store, and the store must hand out no body
// twice.
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
	const n = 130
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 40) }
	want := Encode(&Header{
		Proto: ProtoDatagram, Src: 0, Dst: 2, SrcBox: 3, DstBox: 7, MsgID: 1, Total: 40,
	}, payload(0))
	net.Board(1).CPU.RunInterrupt(20*sim.Millisecond, func() {
		if got := dst.stats.DatagramsRecv; got != n {
			t.Errorf("CAB 1's interrupt level freed with %d datagrams at CAB 2, want %d", got, n)
		}
	})
	var held []byte
	by.dl.SetReceiver(func(wire []byte, sp *trace.Span) {
		if held != nil {
			t.Errorf("a second wire reached CAB 1")
			return
		}
		held = bytes.Clone(wire)
		by.handlePacket(wire, sp)
	})
	src.k.Spawn("src", func(th *kernel.Thread) {
		for i := range n {
			if err := src.SendDatagram(th, 2, 7, 3, payload(i)); err != nil {
				t.Errorf("datagram %d: %v", i, err)
			}
		}
	})
	eng.Run()
	if held == nil {
		t.Fatal("CAB 1 got no copy")
	}
	if !bytes.Equal(held, want) {
		t.Fatalf("CAB 1's copy was rebuilt before CAB 1 read it:\n got  %x\n want %x", held, want)
	}
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
	if frames, bodies := net.Frames().Out(); frames != 0 || bodies != 0 {
		t.Fatalf("%d frames and %d bodies out after the run drained", frames, bodies)
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
