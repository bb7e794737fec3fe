package transport

import (
	"fmt"

	"encoding/binary"

	"repro/internal/cab"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// VMTP-style message transactions — the paper's stated next step ("We plan
// to experiment with the corresponding Internet protocols (IP, TCP, and
// VMTP) over Nectar in the coming year", §6.2.2; VMTP is Cheriton's
// Versatile Message Transaction Protocol, the paper's reference [4]).
//
// The implementation carries VMTP's two signature ideas:
//
//   - packet groups: a message transaction (request or response) of up to
//     MaxGroupPackets packets is blasted onto the network without
//     per-packet or windowed acknowledgments;
//   - selective retransmission: the receiver acknowledges a whole group
//     with a delivery bitmask; only the missing packets are retransmitted
//     (unlike the byte stream's go-back-N).
//
// Like the request-response protocol, the response acknowledges the
// request, and a bounded response cache gives at-most-once semantics.

// MaxGroupPackets is the VMTP packet-group size (VMTP used 32-packet
// groups of 16 KB).
const MaxGroupPackets = 32

// MaxTransaction is the largest request or response payload.
const MaxTransaction = MaxGroupPackets * MaxData

// The transaction protocol's timeouts, matched to Nectar's latencies.
const (
	// vmtpGroupTimeout is how long a receiver waits for a group's missing
	// packets before sending a selective NACK.
	vmtpGroupTimeout = 500 * sim.Microsecond
	// vmtpClientTimeout is the transaction timeout before the client
	// re-probes (retransmits unacknowledged request packets).
	vmtpClientTimeout = 4 * sim.Millisecond
	// vmtpRetries bounds client retransmission rounds.
	vmtpRetries = 8
)

// vmtpGroup reassembles one multi-packet group in place: the message buffer
// is allocated at the group's first packet, and each segment is copied once,
// to its offset in it; a one-packet group is complete on arrival and needs
// no vmtpGroup. The gap timer NACKs with the header of the group's first
// packet, whose Offset (the group size), Total and Deadline every later
// packet must match; nack, bound once, is the timer's function.
type vmtpGroup struct {
	buf   []byte // the message (nil: no group under way)
	got   uint32 // bitmask of the segments that have arrived
	hdr   Header
	timer cab.Timer
	nack  func()
}

// start opens the group at its first packet.
func (g *vmtpGroup) start(h *Header) {
	g.buf = make([]byte, h.Total)
	g.got = 0
	g.hdr = *h
}

// joins reports whether a well-formed packet belongs to the group under
// way. Its group size follows from Total and Deadline (groupPacketOK).
func (g *vmtpGroup) joins(h *Header) bool {
	return h.Total == g.hdr.Total && h.Deadline == g.hdr.Deadline
}

// add copies a segment into place; it reports false for a duplicate.
func (g *vmtpGroup) add(h *Header, payload []byte) bool {
	bit := uint32(1) << h.Seq
	if g.got&bit != 0 {
		return false
	}
	g.got |= bit
	copy(g.buf[int(h.Seq)*maxSeg(h.Deadline):], payload)
	return true
}

func (g *vmtpGroup) complete() bool { return g.got == uint32(1)<<g.hdr.Offset-1 }

// groupPacketOK reports whether a packet is well formed for a group: its
// group size (Offset) is 1..MaxGroupPackets and is the number of segments
// Total takes, Seq names one of them, and payload is exactly that segment.
// Anything else would corrupt a reassembly, or pin one that never
// completes.
func groupPacketOK(h *Header, payload []byte) bool {
	seg := uint64(maxSeg(h.Deadline))
	n := max(1, (uint64(h.Total)+seg-1)/seg)
	if n > MaxGroupPackets || uint64(h.Offset) != n || h.Seq >= h.Offset {
		return false
	}
	return uint64(len(payload)) == min(seg, uint64(h.Total)-uint64(h.Seq)*seg)
}

// vmtpPending is a client-side outstanding transaction. It is reused (see
// releaseVMTP), keeping its response group's timer and NACK closure.
type vmtpPending struct {
	pendingOp
	resp    vmtpGroup
	ackMask uint32 // request packets the server has confirmed
	reqPkts uint32
}

// vmtpState is lazily created per transport.
type vmtpState struct {
	nextTxn uint32
	pending map[uint32]*vmtpPending
	// Server side: requests under reassembly, then in service or answered
	// (the kept answer is the response group's data).
	reqs map[reqKey]*vmtpGroup
	once atMostOnce
}

func (t *Transport) vmtp() *vmtpState {
	if t.vm == nil {
		t.vm = &vmtpState{
			pending: make(map[uint32]*vmtpPending),
			reqs:    make(map[reqKey]*vmtpGroup),
			once:    newAtMostOnce(t.store),
		}
	}
	return t.vm
}

// groupSize returns the number of packets a group of n bytes takes.
func groupSize(n int, deadline sim.Time) int {
	seg := maxSeg(deadline)
	return max(1, (n+seg-1)/seg)
}

// groupWire encodes packet i of the group carrying data under h, setting
// h's Seq, Total and Offset (the group size).
func (t *Transport) groupWire(h *Header, data []byte, i int) []byte {
	seg := maxSeg(h.Deadline)
	lo := i * seg
	h.Seq, h.Total, h.Offset = uint32(i), uint32(len(data)), uint32(groupSize(len(data), h.Deadline))
	return t.wire(h, data[lo:min(lo+seg, len(data))])
}

// VTransact runs one VMTP message transaction: the request group is sent
// to the server mailbox at (dst, dstBox), and the call blocks until the
// complete response group arrives.
func (t *Transport) VTransact(th *kernel.Thread, dst int, dstBox, srcBox uint16, req []byte) ([]byte, error) {
	return t.VTransactOpts(th, dst, dstBox, srcBox, req, SendOpts{})
}

// VTransactOpts is VTransact with a priority class and deadline (the
// per-packet deadline extension slightly lowers the group's payload
// ceiling). The outcome — latency, success, and the root trace id — is
// reported to the SLO engine when one is armed. Every send of a request
// packet encodes it from req, which is never kept or written.
func (t *Transport) VTransactOpts(th *kernel.Thread, dst int, dstBox, srcBox uint16, req []byte, opts SendOpts) (resp []byte, err error) {
	if limit := MaxGroupPackets * maxSeg(opts.Deadline); len(req) > limit {
		return nil, fmt.Errorf("transport: request exceeds the %d-byte transaction limit", limit)
	}
	err = t.reliableOp(th, slo.KindVMTP, dst, opts, nil, func() (uint64, error) {
		vm := t.vmtp()
		vm.nextTxn++
		txn := vm.nextTxn
		pend := takeFree(&t.freeVMTP)
		pend.pendingOp = pendingOp{dst: dst}
		pend.ackMask = 0
		vm.pending[txn] = pend
		defer t.releaseVMTP(vm, txn, pend)

		h := Header{
			Proto: ProtoVSend, Src: uint16(t.self), Dst: uint16(dst),
			SrcBox: srcBox, DstBox: dstBox, MsgID: txn,
			Class: opts.Class, Deadline: opts.Deadline,
		}
		pend.reqPkts = uint32(groupSize(len(req), opts.Deadline))
		t.stats.Requests++

		if err := t.sendGroup(th, dst, &h, req, 0, opts); err != nil {
			return pend.traceID, err
		}
		for attempt := 0; attempt <= vmtpRetries; attempt++ {
			t.awaitReply(th, &pend.pendingOp,
				backoffWait(vmtpClientTimeout, attempt, t.self, dst, txn))
			if pend.done {
				resp = pend.resp.buf
				return pend.traceID, nil
			}
			if pend.err != nil {
				return pend.traceID, pend.err
			}
			// Deadline check at the retransmit queueing point.
			if err := t.expireCheck(dst, opts); err != nil {
				return pend.traceID, err
			}
			t.stats.Retransmits++
			t.fl.Retrans(t.self, dst, byte(ProtoVSend))
			if err := t.sendGroup(th, dst, &h, req, pend.ackMask, opts); err != nil {
				return pend.traceID, err
			}
		}
		return pend.traceID, &ErrTimeout{Dst: dst, ReqID: txn}
	})
	return resp, err
}

// releaseVMTP ends a transaction's client record. Its response-gap timer is
// canceled first: a transaction that ended while holding part of a response
// would otherwise NACK for the rest for good. The record then leaves the
// pending map, which was the only way to reach it, and goes on the free
// list.
func (t *Transport) releaseVMTP(vm *vmtpState, txn uint32, pend *vmtpPending) {
	pend.resp.timer.Cancel()
	delete(vm.pending, txn)
	pend.resp.buf = nil
	t.freeVMTP = append(t.freeVMTP, pend)
}

// VRespond answers a transaction previously delivered to a server mailbox.
// The response may itself be a multi-packet group.
func (t *Transport) VRespond(th *kernel.Thread, req *kernel.Message, data []byte) error {
	if len(data) > MaxTransaction {
		return fmt.Errorf("transport: response exceeds the %d-byte transaction limit", MaxTransaction)
	}
	return t.respond(th, ProtoVResp, &t.vmtp().once, req, data)
}

// sendGroup blasts the packets of the group carrying data under h that mask
// does not name.
func (t *Transport) sendGroup(th *kernel.Thread, dst int, h *Header, data []byte, mask uint32, opts SendOpts) error {
	for i := range groupSize(len(data), h.Deadline) {
		if mask&(1<<i) != 0 {
			continue
		}
		if err := t.sendData(th, dst, t.groupWire(h, data, i), opts); err != nil {
			return err
		}
	}
	return nil
}

// recvVSend handles an arriving request-group packet at the server.
func (t *Transport) recvVSend(h *Header, payload []byte, sp *trace.Span) {
	if !groupPacketOK(h, payload) {
		return
	}
	vm := t.vmtp()
	key := reqKey{src: h.Src, reqID: h.MsgID}
	if a, st := vm.once.lookup(key); st != onceNew {
		// Duplicate: of an answered transaction — resend the response
		// group — or of one still being served — suppress.
		t.stats.DupRequests++
		if st == onceAnswered {
			t.resend(ProtoVResp, h, a, 0, sp)
		}
		return
	}
	g := vm.reqs[key]
	if g == nil {
		// Admission is checked once, at the head of a new group;
		// started reassemblies are allowed to finish.
		if !t.recvAdmit(h, sp) {
			// Expired or pressure-shed: the client got a fast-reject.
			return
		}
		if h.Offset == 1 {
			// Complete on arrival: TryPut copies the payload into CAB
			// memory.
			if t.deliver(h, payload, sp) {
				vm.once.begin(key)
			}
			return
		}
		g = &vmtpGroup{}
		g.nack = func() { t.nackRequest(g) }
		g.start(h)
		vm.reqs[key] = g
		t.armGroupTimer(g)
	} else if !g.joins(h) {
		return
	}
	if !g.add(h, payload) || !g.complete() {
		return
	}
	g.timer.Cancel()
	delete(vm.reqs, key)
	if t.deliver(h, g.buf, sp) {
		vm.once.begin(key)
	}
}

// nackRequest reports the server's delivery mask so the client
// retransmits selectively.
func (t *Transport) nackRequest(g *vmtpGroup) {
	h := &g.hdr
	if t.ovl != nil && h.Deadline != 0 && t.k.Engine().Now() >= h.Deadline {
		// The group expired while half-assembled: shed it instead of
		// NACKing for packets nobody should retransmit.
		t.ovl.expired++
		t.fr.Note(obs.FDeadlineExpired, t.frName, int64(h.Src), int64(h.Class))
		delete(t.vmtp().reqs, reqKey{src: h.Src, reqID: h.MsgID})
		t.sendReject(h, rejectExpired, nil)
		return
	}
	var body [4]byte
	binary.BigEndian.PutUint32(body[:], g.got)
	nh := &Header{
		Proto: ProtoVNack, Src: uint16(t.self), Dst: h.Src,
		SrcBox: h.DstBox, DstBox: h.SrcBox, MsgID: h.MsgID,
	}
	t.stats.AcksSent++
	t.enqueueControl(int(h.Src), t.wire(nh, body[:]), nil)
	// Re-arm while the group stays incomplete.
	t.armGroupTimer(g)
}

// recvVResp handles an arriving response-group packet at the client.
func (t *Transport) recvVResp(h *Header, payload []byte, sp *trace.Span) {
	if !groupPacketOK(h, payload) {
		return
	}
	vm := t.vmtp()
	pend, ok := vm.pending[h.MsgID]
	if !ok || pend.done {
		return
	}
	g := &pend.resp
	if g.buf != nil && !g.joins(h) {
		return
	}
	// Any response packet confirms the full request group.
	pend.ackMask = (1 << pend.reqPkts) - 1
	if h.Offset == 1 {
		// Complete on arrival: the payload's one copy is the response.
		g.buf = append([]byte(nil), payload...)
	} else {
		if g.buf == nil {
			if g.nack == nil {
				g.nack = func() { t.nackResponse(pend) }
			}
			g.start(h)
			t.armGroupTimer(g)
		}
		if !g.add(h, payload) || !g.complete() {
			return
		}
		g.timer.Cancel()
	}
	pend.done = true
	t.noteSuccess(pend.dst)
	pend.traceID = sp.Root().ID()
	// See recvResponse: close the chained response-leg spans, extend
	// the transaction root to cover the full round trip.
	t.endOpenAncestors(sp)
	sp.Root().End()
	pend.cond.Broadcast()
}

// nackResponse asks the server for the response packets still missing.
// The timer that runs it is canceled when the response completes and when
// the transaction ends.
func (t *Transport) nackResponse(pend *vmtpPending) {
	h := &pend.resp.hdr
	var body [4]byte
	binary.BigEndian.PutUint32(body[:], pend.resp.got)
	nh := &Header{
		Proto: ProtoVNack, Src: uint16(t.self), Dst: h.Src,
		SrcBox: h.DstBox, DstBox: h.SrcBox, MsgID: h.MsgID,
		Seq: 1, // direction flag: NACK of a response
	}
	t.stats.AcksSent++
	t.enqueueControl(int(h.Src), t.wire(nh, body[:]), nil)
	t.armGroupTimer(&pend.resp)
}

// recvVNack handles a selective NACK at either end.
func (t *Transport) recvVNack(h *Header, payload []byte, sp *trace.Span) {
	if len(payload) < 4 {
		return
	}
	mask := binary.BigEndian.Uint32(payload)
	vm := t.vmtp()
	if h.Seq == 1 {
		// NACK of a response: the server resends the missing packets
		// of its kept answer.
		a, st := vm.once.lookup(reqKey{src: h.Src, reqID: h.MsgID})
		if st != onceAnswered {
			return
		}
		t.stats.Retransmits++
		t.fl.Retrans(t.self, int(h.Src), byte(ProtoVResp))
		t.resend(ProtoVResp, h, a, mask, sp)
		return
	}
	// NACK of a request: wake the client to retransmit selectively.
	pend, ok := vm.pending[h.MsgID]
	if !ok || pend.done {
		return
	}
	pend.ackMask = mask
	pend.cond.Broadcast()
}

// armGroupTimer (re)arms a group's gap timer.
func (t *Transport) armGroupTimer(g *vmtpGroup) {
	t.k.Board().Timers.Arm(&g.timer, vmtpGroupTimeout, g.nack)
}
