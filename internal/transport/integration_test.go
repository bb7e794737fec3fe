package transport_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/transport"
)

// payload builds a recognizable test pattern.
func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestDatagramDelivery(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	rx := sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 64*1024)
	rx.TP.Register(1, mb)

	data := payload(64)
	var got []byte
	var sent, recvd sim.Time
	rx.Kernel.Spawn("receiver", func(th *kernel.Thread) {
		msg := mb.Get(th)
		recvd = th.Proc().Now()
		got = msg.Bytes()
		if msg.Src != 0 || msg.SrcBox != 9 {
			t.Errorf("msg src=%d srcbox=%d", msg.Src, msg.SrcBox)
		}
		mb.Release(msg)
	})
	sys.CAB(0).Kernel.Spawn("sender", func(th *kernel.Thread) {
		sent = th.Proc().Now()
		if err := sys.CAB(0).TP.SendDatagram(th, 1, 1, 9, data); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	sys.Run()

	if !bytes.Equal(got, data) {
		t.Fatalf("got %d bytes, want %d intact", len(got), len(data))
	}
	lat := recvd - sent
	// Paper §2.3: "the latency for a message sent between processes on
	// two CABs should be under 30 microseconds".
	if lat >= 30*sim.Microsecond {
		t.Fatalf("CAB-to-CAB latency %v, goal < 30us", lat)
	}
	t.Logf("CAB-to-CAB 64B datagram latency: %v", lat)
}

func TestDatagramLargeUsesCircuit(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	rx := sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 512*1024)
	rx.TP.Register(1, mb)

	data := payload(64 * 1024) // far beyond the 1 KB input queue
	var got []byte
	rx.Kernel.Spawn("receiver", func(th *kernel.Thread) {
		msg := mb.Get(th)
		got = msg.Bytes()
		mb.Release(msg)
	})
	sys.CAB(0).Kernel.Spawn("sender", func(th *kernel.Thread) {
		if err := sys.CAB(0).TP.SendDatagram(th, 1, 1, 0, data); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	sys.Run()
	if !bytes.Equal(got, data) {
		t.Fatalf("64KB circuit datagram corrupted or lost (got %d bytes)", len(got))
	}
}

func TestStreamSingleAndMultiPacket(t *testing.T) {
	for _, size := range []int{0, 10, transport.MaxData, transport.MaxData + 1, 10 * transport.MaxData, 25000} {
		sys := core.New(core.SingleHub(2))
		rx := sys.CAB(1)
		mb := rx.Kernel.NewMailbox("in", 512*1024)
		rx.TP.Register(2, mb)
		data := payload(size)
		var got []byte
		var sendErr error
		var senderDone bool
		rx.Kernel.Spawn("receiver", func(th *kernel.Thread) {
			msg := mb.Get(th)
			got = msg.Bytes()
			mb.Release(msg)
		})
		sys.CAB(0).Kernel.Spawn("sender", func(th *kernel.Thread) {
			sendErr = sys.CAB(0).TP.StreamSend(th, 1, 2, 5, data)
			senderDone = true
		})
		sys.Run()
		if sendErr != nil {
			t.Fatalf("size %d: %v", size, sendErr)
		}
		if !senderDone {
			t.Fatalf("size %d: sender never completed", size)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: message corrupted (got %d bytes)", size, len(got))
		}
	}
}

// A valid, checksummed stream head claiming a message of 1<<32-1 bytes
// must not make the receiver reserve that much: reassembly preallocates at
// most the destination mailbox's capacity, since a larger message can never
// be delivered. The head is otherwise handled like any first segment: it is
// acked (cumulative position 1) and the rest, which never comes, is awaited.
func TestStreamHeadHugeTotalAllocatesLittle(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	rx := sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 64*1024)
	rx.TP.Register(2, mb)
	h := &transport.Header{
		Proto: transport.ProtoStream, Src: 0, Dst: 1, SrcBox: 5, DstBox: 2,
		Total: 1<<32 - 1,
	}
	wire := transport.Encode(h, payload(512))
	sys.CAB(0).Kernel.Spawn("forger", func(th *kernel.Thread) {
		if err := sys.CAB(0).DL.SendPacket(th, 1, wire); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.Run()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("one 512-byte stream head allocated %d bytes", grew)
	}
	st := rx.TP.Stats()
	if st.AcksSent != 1 || st.ChecksumDrops != 0 || st.StreamMsgsRecv != 0 || mb.Len() != 0 {
		t.Fatalf("head handled as acks=%d checksum drops=%d msgs=%d queued=%d, want one ack and nothing else",
			st.AcksSent, st.ChecksumDrops, st.StreamMsgsRecv, mb.Len())
	}
}

func TestStreamManyMessagesInOrder(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	rx := sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 512*1024)
	rx.TP.Register(2, mb)
	const nmsgs = 20
	var got []uint32
	rx.Kernel.Spawn("receiver", func(th *kernel.Thread) {
		for i := 0; i < nmsgs; i++ {
			msg := mb.Get(th)
			got = append(got, msg.Tag)
			mb.Release(msg)
		}
	})
	sys.CAB(0).Kernel.Spawn("sender", func(th *kernel.Thread) {
		for i := 0; i < nmsgs; i++ {
			if err := sys.CAB(0).TP.StreamSend(th, 1, 2, 5, payload(100+i)); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	sys.Run()
	if len(got) != nmsgs {
		t.Fatalf("received %d messages, want %d", len(got), nmsgs)
	}
	for i := 1; i < nmsgs; i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("messages out of order: %v", got)
		}
	}
}

func TestStreamRecoversFromLoss(t *testing.T) {
	params := core.DefaultParams()
	// Aggressive error injection: ~2% of 1KB packets damaged.
	params.Topo.Errors = fiber.ErrorModel{BitErrorRate: 2e-5, Seed: 99}
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	rx := sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 512*1024)
	rx.TP.Register(2, mb)
	data := payload(60 * 1024) // ~60 packets
	var got []byte
	rx.Kernel.Spawn("receiver", func(th *kernel.Thread) {
		msg := mb.Get(th)
		got = msg.Bytes()
		mb.Release(msg)
	})
	var sendErr error
	sys.CAB(0).Kernel.Spawn("sender", func(th *kernel.Thread) {
		sendErr = sys.CAB(0).TP.StreamSend(th, 1, 2, 5, data)
	})
	sys.Run()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("message corrupted under loss (got %d bytes)", len(got))
	}
	st := sys.CAB(0).TP.Stats()
	dls := sys.CAB(0).DL.Stats()
	rxdl := rx.DL.Stats()
	if dls.PacketsSent == 0 {
		t.Fatal("no packets sent?")
	}
	if st.Retransmits == 0 && rxdl.FramingErrors == 0 && rx.TP.Stats().ChecksumDrops == 0 {
		t.Log("warning: loss injection produced no observable damage (seed too kind?)")
	}
	t.Logf("retransmits=%d framing=%d checksum-drops=%d",
		st.Retransmits, rxdl.FramingErrors, rx.TP.Stats().ChecksumDrops)
}

func TestRequestResponse(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	srv := sys.CAB(1)
	smb := srv.Kernel.NewMailbox("server", 64*1024)
	srv.TP.Register(7, smb)
	// Echo server: reply with the request reversed.
	srv.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := smb.Get(th)
			body := req.Bytes()
			rev := make([]byte, len(body))
			for i, b := range body {
				rev[len(body)-1-i] = b
			}
			th.Compute(5 * sim.Microsecond)
			if err := srv.TP.Respond(th, req, rev); err != nil {
				t.Errorf("respond: %v", err)
			}
			smb.Release(req)
		}
	})

	var resp []byte
	var err error
	var rtt sim.Time
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		start := th.Proc().Now()
		resp, err = sys.CAB(0).TP.Request(th, 1, 7, 3, []byte("abcdef"))
		rtt = th.Proc().Now() - start
	})
	sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "fedcba" {
		t.Fatalf("response %q", resp)
	}
	if rtt >= 100*sim.Microsecond {
		t.Fatalf("request-response RTT %v, expected well under 100us", rtt)
	}
	t.Logf("request-response RTT: %v", rtt)
}

func TestRequestTimesOutWithoutServer(t *testing.T) {
	params := core.DefaultParams()
	params.Transport.ReqTimeout = 500 * sim.Microsecond
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	var err error
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		_, err = sys.CAB(0).TP.Request(th, 1, 7, 3, []byte("x"))
	})
	sys.Run()
	if err == nil {
		t.Fatal("request with no server should time out")
	}
	if _, ok := err.(*transport.ErrTimeout); !ok {
		t.Fatalf("error type %T", err)
	}
}

func TestRequestAtMostOnceUnderLoss(t *testing.T) {
	params := core.DefaultParams()
	params.Topo.Errors = fiber.ErrorModel{BitErrorRate: 3e-5, Seed: 1234}
	params.Transport.ReqTimeout = sim.Millisecond
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	srv := sys.CAB(1)
	smb := srv.Kernel.NewMailbox("server", 64*1024)
	srv.TP.Register(7, smb)
	executions := 0
	srv.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := smb.Get(th)
			executions++
			srv.TP.Respond(th, req, append([]byte("ok:"), req.Bytes()...))
			smb.Release(req)
		}
	})
	const nreqs = 30
	completed := 0
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		for i := 0; i < nreqs; i++ {
			resp, err := sys.CAB(0).TP.Request(th, 1, 7, 3, payload(200+i))
			if err != nil {
				continue // timeout under extreme loss is legal
			}
			if !bytes.HasPrefix(resp, []byte("ok:")) {
				t.Errorf("bad response")
			}
			completed++
		}
	})
	sys.Run()
	if completed < nreqs*8/10 {
		t.Fatalf("only %d/%d requests completed", completed, nreqs)
	}
	// At-most-once: the server must not execute a request twice even
	// though the client retransmits.
	if executions > nreqs {
		t.Fatalf("%d executions for %d requests (duplicate execution)", executions, nreqs)
	}
	t.Logf("completed=%d executions=%d dupes-suppressed=%d",
		completed, executions, srv.TP.Stats().DupRequests)
}

func TestTransportAcrossMesh(t *testing.T) {
	sys := core.New(core.Mesh(2, 2, 1))
	// CAB 0 on hub (0,0), CAB 3 on hub (1,1): 3 hubs on the route.
	rx := sys.CAB(3)
	mb := rx.Kernel.NewMailbox("in", 256*1024)
	rx.TP.Register(1, mb)
	data := payload(5000)
	var got []byte
	rx.Kernel.Spawn("receiver", func(th *kernel.Thread) {
		msg := mb.Get(th)
		got = msg.Bytes()
		mb.Release(msg)
	})
	sys.CAB(0).Kernel.Spawn("sender", func(th *kernel.Thread) {
		if err := sys.CAB(0).TP.StreamSend(th, 3, 1, 0, data); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	sys.Run()
	if !bytes.Equal(got, data) {
		t.Fatalf("mesh stream corrupted (got %d bytes)", len(got))
	}
}

func TestStreamThroughputApproachesFiberRate(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	rx := sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 1024*1024)
	rx.TP.Register(2, mb)
	const total = 500 * 1024
	var doneAt sim.Time
	rx.Kernel.Spawn("receiver", func(th *kernel.Thread) {
		msg := mb.Get(th)
		doneAt = th.Proc().Now()
		if msg.Len != total {
			t.Errorf("got %d bytes", msg.Len)
		}
		mb.Release(msg)
	})
	var startAt sim.Time
	sys.CAB(0).Kernel.Spawn("sender", func(th *kernel.Thread) {
		startAt = th.Proc().Now()
		if err := sys.CAB(0).TP.StreamSend(th, 1, 2, 5, payload(total)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	sys.Run()
	mbps := float64(total) * 8 / (doneAt - startAt).Seconds() / 1e6
	// The fiber peaks at 100 Mb/s; the windowed stream with per-packet
	// software costs should still exceed half of it.
	if mbps < 50 {
		t.Fatalf("stream throughput %.1f Mb/s, want > 50", mbps)
	}
	t.Logf("stream throughput: %.1f Mb/s", mbps)
}

func TestManySendersFanIn(t *testing.T) {
	sys := core.New(core.SingleHub(8))
	rx := sys.CAB(0)
	mb := rx.Kernel.NewMailbox("in", 1024*1024)
	rx.TP.Register(1, mb)
	const per = 5
	recvd := 0
	rx.Kernel.Spawn("receiver", func(th *kernel.Thread) {
		for i := 0; i < 7*per; i++ {
			msg := mb.Get(th)
			recvd++
			mb.Release(msg)
		}
	})
	for i := 1; i < 8; i++ {
		st := sys.CAB(i)
		src := i
		st.Kernel.Spawn("sender", func(th *kernel.Thread) {
			for j := 0; j < per; j++ {
				if err := st.TP.StreamSend(th, 0, 1, 0, payload(2000+src)); err != nil {
					t.Errorf("cab %d send: %v", src, err)
				}
			}
		})
	}
	sys.Run()
	if recvd != 7*per {
		t.Fatalf("received %d, want %d", recvd, 7*per)
	}
}

func TestTransportAccessorsAndErrors(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	tp := sys.CAB(0).TP
	if tp.Self() != 0 || tp.Kernel() != sys.CAB(0).Kernel {
		t.Fatal("accessors wrong")
	}
	if tp.Mailbox(42) != nil {
		t.Fatal("unregistered box should be nil")
	}
	e := &transport.ErrTimeout{Dst: 3, ReqID: 9}
	if e.Error() == "" {
		t.Fatal("empty error text")
	}
	if transport.Proto(1).String() == "" {
		t.Fatal("empty proto name")
	}
	sys.Run()
}

func TestDatagramMulticastDirect(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	got := make([]int, 4)
	for i := 1; i < 4; i++ {
		rx := sys.CAB(i)
		mb := rx.Kernel.NewMailbox("in", 1<<20)
		rx.TP.Register(5, mb)
		idx := i
		rx.Kernel.SpawnDaemon("rx", func(th *kernel.Thread) {
			for {
				msg := mb.Get(th)
				got[idx] += msg.Len
				mb.Release(msg)
			}
		})
	}
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		if err := sys.CAB(0).TP.SendDatagramMulticast(th, []int{1, 2, 3}, 5, 0, payload(300)); err != nil {
			t.Errorf("multicast: %v", err)
		}
		// A large multicast takes the circuit path.
		if err := sys.CAB(0).TP.SendDatagramMulticast(th, []int{1, 2, 3}, 5, 0, payload(5000)); err != nil {
			t.Errorf("large multicast: %v", err)
		}
	})
	sys.Run()
	for i := 1; i < 4; i++ {
		if got[i] != 300+5000 {
			t.Fatalf("dst %d received %d bytes, want 5300", i, got[i])
		}
	}
	if sent := sys.CAB(0).DL.Stats().PacketsSent; sent != 2 {
		t.Fatalf("%d packets on the wire, want 2 (one per multicast)", sent)
	}
}

// TestDuplicateResponseSuppression exercises both duplicate directions of
// the request-response protocol deterministically (no loss needed): the
// server delays its answer past the client's first timeout, so the client
// retransmits and the server must suppress the in-service duplicate; the
// server then answers every request TWICE, so the client sees a redundant
// response for an already-completed (and deleted) request and must ignore
// it without corrupting later requests.
func TestDuplicateResponseSuppression(t *testing.T) {
	params := core.DefaultParams()
	params.Transport.ReqTimeout = 100 * sim.Microsecond
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	srv := sys.CAB(1)
	smb := srv.Kernel.NewMailbox("server", 64*1024)
	srv.TP.Register(7, smb)
	executions := 0
	srv.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := smb.Get(th)
			executions++
			// Outlive the client's first timeout: at least one
			// retransmission arrives while this request is in service.
			th.Sleep(250 * sim.Microsecond)
			srv.TP.Respond(th, req, req.Bytes())
			// Redundant second response for the same request ID.
			srv.TP.Respond(th, req, req.Bytes())
			smb.Release(req)
		}
	})

	const n = 5
	got := 0
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		for i := 0; i < n; i++ {
			body := []byte{byte(i), byte(i + 1)}
			resp, err := sys.CAB(0).TP.Request(th, 1, 7, 3, body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				continue
			}
			if !bytes.Equal(resp, body) {
				t.Errorf("request %d: response %v, want %v", i, resp, body)
			}
			got++
		}
	})
	sys.Run()
	if got != n {
		t.Fatalf("%d/%d requests completed", got, n)
	}
	if executions != n {
		t.Fatalf("server executed %d times, want %d (at-most-once violated)", executions, n)
	}
	st := srv.TP.Stats()
	if st.DupRequests == 0 {
		t.Fatal("server never saw a duplicate request (retransmission not exercised)")
	}
	if st.Responses != 2*n {
		t.Fatalf("server sent %d responses, want %d", st.Responses, 2*n)
	}
	if rtx := sys.CAB(0).TP.Stats().Retransmits; rtx == 0 {
		t.Fatal("client never retransmitted")
	}
}
