package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/datalink"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// vmtpRig is two CAB stacks on one HUB, built the way core builds them
// (core imports this package, so internal tests cannot use it). CAB 1
// serves mailbox 7.
type vmtpRig struct {
	eng *sim.Engine
	net *topo.Network
	tp  [2]*Transport
	mb  *kernel.Mailbox
}

func newVMTPRig() *vmtpRig {
	eng := sim.NewEngine()
	r := &vmtpRig{eng: eng, net: topo.Single(2).Build(eng, nil)}
	for i := range r.tp {
		k := kernel.New(r.net.Board(i))
		r.tp[i] = New(k, datalink.New(k, r.net, topo.NewRouter(r.net, topo.PolicyBFS)), DefaultParams())
	}
	r.mb = r.tp[1].k.NewMailbox("vmtp", 1<<20)
	r.tp[1].Register(7, r.mb)
	return r
}

// feed hands wires to the server's receive path as the datalink would and
// runs their receive interrupts. The server copies each wire, so the caller
// keeps its own.
func (r *vmtpRig) feed(wires ...[]byte) {
	for _, w := range wires {
		r.tp[1].handlePacket(w, nil)
	}
	r.eng.RunUntil(r.eng.Now() + 100*sim.Microsecond)
}

// vsend encodes one request-group packet from CAB 0 to the rig's server.
func vsend(msgID, seq, groupSize, total uint32, deadline sim.Time, payload []byte) []byte {
	return Encode(&Header{
		Proto: ProtoVSend, Src: 0, Dst: 1, SrcBox: 3, DstBox: 7,
		MsgID: msgID, Seq: seq, Total: total, Offset: groupSize, Deadline: deadline,
	}, payload)
}

// segment returns segment seq of msg at seg bytes per packet.
func segment(msg []byte, seq, seg int) []byte {
	return msg[min(seq*seg, len(msg)):min((seq+1)*seg, len(msg))]
}

func TestVMTPDropsMalformedGroupPackets(t *testing.T) {
	const dl = 10 * sim.Second
	full := bytes.Repeat([]byte{0xAB}, MaxData)
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"group size 0", vsend(1, 0, 0, 10, 0, full[:10])},
		{"group size over 32", vsend(1, 0, 33, 33*MaxData, 0, full)},
		{"seq beyond the group", vsend(1, 2, 2, MaxData+10, 0, full[:10])},
		{"seq just past a full group", vsend(1, 2, 2, 2*MaxData, 0, nil)},
		{"group size disagrees with total", vsend(1, 0, 2, 10, 0, full[:10])},
		{"one-packet group shorter than its total", vsend(1, 0, 1, 20, 0, full[:10])},
		{"last segment too long", vsend(1, 1, 2, MaxData+10, 0, full[:11])},
		{"first segment too short", vsend(1, 0, 2, MaxData+10, 0, full[:MaxData-1])},
		{"segment sized without the deadline extension", vsend(1, 0, 2, MaxData+10, dl, full)},
		{"empty message with a payload", vsend(1, 0, 1, 0, 0, full[:1])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newVMTPRig()
			srv := r.tp[1]
			armed := srv.k.Board().Timers.Armed()
			r.feed(tc.wire, tc.wire)
			if n := r.mb.Len(); n != 0 {
				t.Fatalf("%d messages delivered", n)
			}
			if srv.vm != nil && len(srv.vm.reqs) != 0 {
				t.Fatalf("%d groups under reassembly", len(srv.vm.reqs))
			}
			if d := srv.k.Board().Timers.Armed() - armed; d != 0 {
				t.Fatalf("%d timers armed", d)
			}
		})
	}
}

// TestVMTPReassemblesReorderedGroup feeds a deadline-stamped 3-packet group
// out of order, with duplicates and with packets that disagree with the
// group it started, and wants the message delivered once, byte for byte,
// with the gap timer stopped.
func TestVMTPReassemblesReorderedGroup(t *testing.T) {
	const dl = 10 * sim.Second
	seg := maxSeg(dl)
	msg := make([]byte, 2*seg+123)
	for i := range msg {
		msg[i] = byte(i*7 + i>>8)
	}
	pkt := func(seq int) []byte { return vsend(1, uint32(seq), 3, uint32(len(msg)), dl, segment(msg, seq, seg)) }
	r := newVMTPRig()
	srv := r.tp[1]
	armed := srv.k.Board().Timers.Armed()

	r.feed(pkt(2), pkt(0), pkt(2))
	// Well formed on their own, but not packets of the group under way.
	r.feed(
		vsend(1, 1, 3, uint32(len(msg)), 0, segment(msg, 1, MaxData)),
		vsend(1, 1, 3, uint32(len(msg))+1, dl, segment(msg, 1, seg)),
		vsend(1, 1, 3, uint32(len(msg)), dl+1, segment(msg, 1, seg)),
	)
	g := srv.vm.reqs[reqKey{src: 0, reqID: 1}]
	if g == nil || g.got != 0b101 {
		t.Fatalf("group under way: %+v, want segments 0 and 2", g)
	}
	r.feed(pkt(1), pkt(0))

	m, ok := r.mb.TryGet()
	if !ok || !bytes.Equal(m.Bytes(), msg) {
		t.Fatalf("delivered %v: message does not match the sender's bytes", ok)
	}
	if n := r.mb.Len(); n != 0 {
		t.Fatalf("%d more messages delivered", n)
	}
	if len(srv.vm.reqs) != 0 {
		t.Fatalf("%d groups left under reassembly", len(srv.vm.reqs))
	}
	if d := srv.k.Board().Timers.Armed() - armed; d != 1 {
		t.Fatalf("%d gap timers armed, want 1", d)
	}
	r.eng.RunUntil(r.eng.Now() + 10*vmtpGroupTimeout)
	if srv.stats.AcksSent != 0 || srv.k.Board().Timers.Expired() != 0 {
		t.Fatalf("gap timer fired after the group completed (%d NACKs)", srv.stats.AcksSent)
	}
}

// TestVMTPClientStopsNackingWhenTransactionEnds cuts the server's outgoing
// fiber once the client holds part of a 10-packet response, so the rest
// never arrives and the transaction times out. Once it has, the client's
// response-gap timer must be stopped: no more NACKs, and the engine drains.
func TestVMTPClientStopsNackingWhenTransactionEnds(t *testing.T) {
	r := newVMTPRig()
	cl, srv := r.tp[0], r.tp[1]
	srv.k.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := r.mb.Get(th)
			srv.VRespond(th, req, make([]byte, 10*MaxData))
			r.mb.Release(req)
		}
	})
	var err error
	done := false
	cl.k.Spawn("client", func(th *kernel.Thread) {
		_, err = cl.VTransact(th, 1, 7, 3, []byte("go"))
		done = true
	})
	partial := func() bool {
		if cl.vm == nil {
			return false
		}
		for _, p := range cl.vm.pending {
			if p.resp.got != 0 {
				return true
			}
		}
		return false
	}
	for !partial() {
		if r.eng.Now() > sim.Second {
			t.Fatal("no response packet arrived")
		}
		r.eng.RunUntil(r.eng.Now() + sim.Microsecond)
	}
	up, _ := r.net.CABLinks(1)
	up.SetDown(true)
	for !done {
		if r.eng.Now() > 2*sim.Second {
			t.Fatal("VTransact did not return")
		}
		r.eng.RunUntil(r.eng.Now() + sim.Millisecond)
	}
	var tmo *ErrTimeout
	if !errors.As(err, &tmo) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
	nacks := cl.stats.AcksSent
	if nacks == 0 {
		t.Fatal("client never NACKed the partial response")
	}
	r.eng.RunUntil(r.eng.Now() + 50*sim.Millisecond)
	if got := cl.stats.AcksSent; got != nacks {
		t.Fatalf("client sent %d NACKs after its transaction ended", got-nacks)
	}
	if n := r.eng.Pending(); n != 0 {
		t.Fatalf("%d events still pending 50 ms after the transaction ended", n)
	}
}

// fuzzBody is the sender's message of a given transaction and length: a
// byte sequence seeded by both, so that a prefix of one message, or a mix
// of two, is not another message.
func fuzzBody(msgID, total uint32) []byte {
	b := make([]byte, total)
	x := uint64(msgID)<<32 | uint64(total)
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
	return b
}

// FuzzVMTPReassembly decodes bytes into request-group packets of three
// transactions and feeds them to one server. The first 9 bytes give each
// transaction its length (2 bytes) and whether it carries a deadline (1
// byte). Every 4 bytes after that are one packet (a, b, c, d): transaction
// a%3, segment b, and in c the defects to inject: a flipped deadline, a
// Total raised by d+1, a group size of d%40, an unreduced segment number
// b%40, a payload one byte off, a duplicate. Whatever arrives, the server
// must not panic, and each message it delivers must be exactly the Total
// of a well-formed group and byte for byte what the sender sent, at most
// once per transaction.
func FuzzVMTPReassembly(f *testing.F) {
	hdr := func(totals ...uint16) []byte {
		var b []byte
		for _, tot := range totals {
			b = binary.BigEndian.AppendUint16(b, tot)
			b = append(b, byte(tot&1))
		}
		return b
	}
	f.Add(append(hdr(2*MaxData+100, 10, 0), 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 32, 0, 0, 1, 0, 0, 1, 0, 0, 0))
	f.Add(append(hdr(3*MaxData, 5000, 31*MaxData), 0, 0, 4, 0, 1, 0, 0, 0, 2, 39, 8, 0, 0, 1, 16, 0))
	f.Add(append(hdr(MaxData+1, 1, 2), 0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 0, 0))
	f.Add(append(hdr(0, 33*MaxData, 64), 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0))
	f.Add(append(hdr(MaxData+100, 2*MaxData, 0), 0, 0, 0, 0, 0, 1, 16, 0, 1, 2, 8, 0, 1, 0, 0, 0, 1, 1, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		const dl = 10 * sim.Second
		var totals [3]uint32
		var deadlines [3]sim.Time
		for m := range totals {
			totals[m] = uint32(binary.BigEndian.Uint16(data[3*m:])) % (MaxTransaction + 2*MaxData)
			if data[3*m+2]&1 != 0 {
				deadlines[m] = dl
			}
		}
		type msgLen struct{ msgID, total uint32 }
		wellFormed := make(map[msgLen]bool)
		r := newVMTPRig()
		pkts := data[9:]
		for i := 0; i+4 <= len(pkts) && i < 4*64; i += 4 {
			a, b, c, d := pkts[i], pkts[i+1], pkts[i+2], pkts[i+3]
			m := int(a % 3)
			msgID, total, deadline := uint32(m+1), totals[m], deadlines[m]
			if c&1 != 0 {
				deadline ^= dl
			}
			if c&2 != 0 {
				total += uint32(d) + 1
			}
			seg := maxSeg(deadline)
			n := max(1, (int(total)+seg-1)/seg)
			groupSize := uint32(n)
			if c&4 != 0 {
				groupSize = uint32(d) % 40
			}
			seq := int(b) % n
			if c&8 != 0 {
				seq = int(b) % 40
			}
			payload := segment(fuzzBody(msgID, total), seq, seg)
			if c&16 != 0 {
				if len(payload) > 0 {
					payload = payload[:len(payload)-1]
				} else {
					payload = []byte{0}
				}
			}
			if n <= MaxGroupPackets && int(groupSize) == n && seq < n && c&16 == 0 {
				wellFormed[msgLen{msgID, total}] = true
			}
			w := vsend(msgID, uint32(seq), groupSize, total, deadline, payload)
			r.tp[1].handlePacket(w, nil)
			if c&32 != 0 {
				r.tp[1].handlePacket(w, nil)
			}
		}
		r.eng.RunUntil(sim.Millisecond)
		seen := make(map[uint32]bool)
		for {
			msg, ok := r.mb.TryGet()
			if !ok {
				break
			}
			got := msg.Bytes()
			if seen[msg.Tag] {
				t.Fatalf("transaction %d delivered twice", msg.Tag)
			}
			seen[msg.Tag] = true
			if !wellFormed[msgLen{msg.Tag, uint32(len(got))}] {
				t.Fatalf("transaction %d delivered %d bytes, the Total of no well-formed group", msg.Tag, len(got))
			}
			if !bytes.Equal(got, fuzzBody(msg.Tag, uint32(len(got)))) {
				t.Fatalf("transaction %d: %d bytes delivered that the sender did not send", msg.Tag, len(got))
			}
		}
	})
}

// TestVMTPCrashStopsReassemblyTimers crashes a server holding half a request
// group: the crash discards the group, so its gap timer must not go on
// NACKing for the rest.
func TestVMTPCrashStopsReassemblyTimers(t *testing.T) {
	r := newVMTPRig()
	srv := r.tp[1]
	full := bytes.Repeat([]byte{0xCD}, MaxData)
	r.feed(vsend(1, 0, 2, MaxData+10, 0, full))
	if len(srv.vm.reqs) != 1 {
		t.Fatalf("%d groups under reassembly, want 1", len(srv.vm.reqs))
	}
	nacks := srv.stats.AcksSent
	srv.k.Board().PowerOff()
	srv.Crash()
	r.eng.RunUntil(r.eng.Now() + 50*sim.Millisecond)
	if d := srv.stats.AcksSent - nacks; d != 0 {
		t.Fatalf("%d NACKs sent after the crash, want 0", d)
	}
	if n := r.eng.Pending(); n != 0 {
		t.Fatalf("%d events pending after the crash, want 0", n)
	}
}
