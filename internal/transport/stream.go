package transport

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/trace"
)

// The byte-stream protocol (paper §6.2.2): "reliable communication using
// acknowledgments, retransmissions, and a sliding window for flow control."
//
// Each StreamSend is one message; the message is fragmented into packets of
// at most MaxData bytes, transmitted go-back-N within a window, and
// reassembled in order at the receiver, which returns cumulative
// acknowledgments (and AckDone when the message is complete and has been
// delivered to its mailbox). A connection — identified by (peer, local box,
// remote box) — carries one message at a time; senders of the same
// connection serialize.

// streamKey identifies a stream connection from the local CAB's viewpoint.
type streamKey struct {
	peer int
	lbox uint16 // local box
	rbox uint16 // remote box
}

// streamSender is the send side of one connection.
type streamSender struct {
	mu      *kernel.Sem // one in-flight message per connection
	cond    kernel.Cond
	curMsg  uint32
	acked   int   // packets cumulatively acknowledged for curMsg
	done    bool  // AckDone received for curMsg
	err     error // fatal failure (peer dead, local crash); set out of band
	nextMsg uint32
	window  int // unacked packets in flight; set only through setWindow
}

// ErrStreamTimeout is returned when a stream message exhausts
// maxRTOExpiries consecutive retransmission timeouts with no ack
// progress — the receiver is unreachable or lost the message head, and
// go-back-N alone cannot recover. The caller may retry the whole message
// (a fresh MsgID resynchronizes the receiver).
type ErrStreamTimeout struct {
	Dst      int
	MsgID    uint32
	Expiries int
}

func (e *ErrStreamTimeout) Error() string {
	return fmt.Sprintf("transport: stream msg %d to CAB %d abandoned after %d retransmission timeouts",
		e.MsgID, e.Dst, e.Expiries)
}

// streamRecv is the receive side of one connection.
type streamRecv struct {
	cur    uint32 // message currently being assembled
	expect uint32 // next packet index expected
	buf    []byte
	total  int
}

func (t *Transport) streamOut(key streamKey) *streamSender {
	s, ok := t.streamsOut[key]
	if !ok {
		s = &streamSender{mu: t.k.NewSem(1)}
		t.streamsOut[key] = s
	}
	return s
}

func (t *Transport) streamIn(key streamKey) *streamRecv {
	s, ok := t.streamsIn[key]
	if !ok {
		s = &streamRecv{}
		t.streamsIn[key] = s
	}
	return s
}

// StreamSend reliably transfers data to (dst, dstBox), blocking the thread
// until the receiver has accepted the whole message into its mailbox. It
// gives up with ErrStreamTimeout after maxRTOExpiries consecutive
// retransmission timeouts without ack progress, and with ErrPeerDead when
// the heartbeat monitor declares the destination dead.
func (t *Transport) StreamSend(th *kernel.Thread, dst int, dstBox, srcBox uint16, data []byte) error {
	return t.StreamSendOpts(th, dst, dstBox, srcBox, data, SendOpts{})
}

// StreamSendOpts is StreamSend with a priority class and deadline. With
// overload control armed the message passes sender-side admission first
// (ErrOverload / ErrDeadlineExpired fast-fail) and every fragment carries
// the class and deadline on the wire. The outcome is reported to the SLO
// engine when one is armed (streams carry no response, so no trace id).
// data is copied into a wire once per fragment sent or resent; it is never
// kept or written, so the caller may reuse it as soon as the call returns.
func (t *Transport) StreamSendOpts(th *kernel.Thread, dst int, dstBox, srcBox uint16, data []byte, opts SendOpts) error {
	s := t.streamOut(streamKey{peer: dst, lbox: srcBox, rbox: dstBox})
	return t.reliableOp(th, slo.KindStream, dst, opts, s.mu, func() (uint64, error) {
		defer t.setWindow(s, 0)

		msgID := s.nextMsg
		s.nextMsg++
		s.curMsg = msgID
		s.acked = 0
		s.done = false
		s.err = nil

		expiries := 0 // consecutive RTO expiries without ack progress

		// Fragment (a stamped deadline costs its wire extension per packet).
		seg := maxSeg(opts.Deadline)
		n := (len(data) + seg - 1) / seg
		if n == 0 {
			n = 1 // empty message still sends one packet
		}
		sendPkt := func(i int) error {
			lo := i * seg
			hi := lo + seg
			if hi > len(data) {
				hi = len(data)
			}
			h := &Header{
				Proto: ProtoStream, Src: uint16(t.self), Dst: uint16(dst),
				SrcBox: srcBox, DstBox: dstBox,
				MsgID: msgID, Seq: uint32(i),
				Total: uint32(len(data)), Offset: uint32(lo),
				Class: opts.Class, Deadline: opts.Deadline,
			}
			return t.sendData(th, dst, t.wire(h, data[lo:hi]), opts)
		}

		base, next := 0, 0
		for !s.done {
			for next < n && next < base+t.params.Window {
				if err := sendPkt(next); err != nil {
					return 0, err
				}
				next++
				t.setWindow(s, next-base)
			}
			got := s.cond.WaitTimeout(th, rto)
			if s.done {
				break
			}
			if s.err != nil {
				return 0, s.err
			}
			if s.acked > base {
				base = s.acked
				t.setWindow(s, next-base)
				expiries = 0
				continue
			}
			if !got {
				// Deadline check at the retransmit queueing point.
				if err := t.expireCheck(dst, opts); err != nil {
					return 0, err
				}
				// Retransmission timeout: go-back-N from the last
				// cumulative ack — but not forever.
				t.stats.Retransmits++
				t.stats.RTOExpiries++
				t.fr.Note(obs.FRTOExpiry, t.frName, int64(dst), int64(next-base))
				t.fl.Retrans(t.self, dst, byte(ProtoStream))
				expiries++
				if expiries >= maxRTOExpiries {
					return 0, &ErrStreamTimeout{Dst: dst, MsgID: msgID, Expiries: expiries}
				}
				next = base
				t.setWindow(s, 0)
			}
		}
		t.stats.StreamMsgsSent++
		return 0, nil
	})
}

// recvStream handles an arriving stream data packet (interrupt level).
func (t *Transport) recvStream(h *Header, payload []byte, sp *trace.Span) {
	key := streamKey{peer: int(h.Src), lbox: h.DstBox, rbox: h.SrcBox}
	rs := t.streamIn(key)

	ack := func(seq uint32) {
		ah := &Header{
			Proto: ProtoStreamAck, Src: uint16(t.self), Dst: h.Src,
			SrcBox: h.DstBox, DstBox: h.SrcBox,
			MsgID: h.MsgID, Seq: seq,
		}
		t.stats.AcksSent++
		t.enqueueControl(int(h.Src), t.wire(ah, nil), sp)
	}

	switch {
	case h.MsgID < rs.cur:
		// Stale retransmission of a message we already delivered.
		ack(AckDone)
		return
	case t.ovl != nil && h.Deadline != 0 && t.k.Engine().Now() >= h.Deadline:
		// The message expired in flight: fast-reject so the sender
		// stops retransmitting the rest of it.
		t.ovl.expired++
		t.fr.Note(obs.FDeadlineExpired, t.frName, int64(h.Src), int64(h.Class))
		t.sendReject(h, rejectExpired, sp)
		return
	case h.MsgID > rs.cur:
		// The receiver lost track (e.g. restart): resynchronize on a
		// fresh message head; otherwise drop.
		if h.Seq != 0 {
			return
		}
		rs.cur = h.MsgID
		rs.expect = 0
		rs.buf = rs.buf[:0]
	}
	if h.Seq != rs.expect {
		// Gap (loss) or duplicate: re-ack the cumulative position.
		ack(rs.expect)
		return
	}
	if int(h.Offset) != len(rs.buf) {
		// Corrupt sequencing; drop and re-ack.
		ack(rs.expect)
		return
	}
	if len(rs.buf) == 0 {
		// First segment: size the buffer for the whole message once. A
		// message larger than the destination mailbox can never be
		// delivered, so the mailbox's capacity bounds the reservation.
		want := 0
		if mb := t.boxes[h.DstBox]; mb != nil {
			want = min(int(h.Total), mb.Capacity())
		}
		if cap(rs.buf) < want {
			rs.buf = make([]byte, 0, want)
		}
	}
	rs.buf = append(rs.buf, payload...)
	rs.expect++
	rs.total = int(h.Total)
	if len(rs.buf) < rs.total {
		ack(rs.expect)
		return
	}
	// Message complete: deliver, then AckDone. If the mailbox is full the
	// last packet is treated as unreceived so the sender retries.
	if t.deliver(h, rs.buf, sp) {
		t.stats.StreamMsgsRecv++
		rs.cur = h.MsgID + 1
		rs.expect = 0
		rs.buf = rs.buf[:0] // deliver copied the bytes into CAB memory
		ack(AckDone)
	} else {
		rs.buf = rs.buf[:len(rs.buf)-len(payload)]
		rs.expect--
		ack(rs.expect)
	}
}

// recvStreamAck handles an acknowledgment at the sender (interrupt level).
func (t *Transport) recvStreamAck(h *Header) {
	key := streamKey{peer: int(h.Src), lbox: h.DstBox, rbox: h.SrcBox}
	s, ok := t.streamsOut[key]
	if !ok || h.MsgID != s.curMsg {
		return
	}
	if h.Seq == AckDone {
		s.done = true
		t.noteSuccess(int(h.Src))
	} else if int(h.Seq) > s.acked {
		s.acked = int(h.Seq)
	}
	s.cond.Broadcast()
}

func (k streamKey) String() string {
	return fmt.Sprintf("stream(%d:%d->%d)", k.lbox, k.peer, k.rbox)
}
