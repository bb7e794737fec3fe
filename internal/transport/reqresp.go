package transport

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The request-response protocol (paper §6.2.2): "supports client-server
// interactions such as remote procedure calls." The client retransmits
// unanswered requests; the server suppresses duplicates that are still in
// service and answers duplicates of completed requests from a bounded
// response cache, giving at-most-once execution under loss.

// pendingOp is the client side of one outstanding request or transaction:
// what its retry loop waits on and what the answer, or an out-of-band
// failure, sets.
type pendingOp struct {
	cond    kernel.Cond
	dst     int
	done    bool
	err     error  // fatal failure (peer dead, local crash); set out of band
	traceID uint64 // root span id of the operation's trace tree (0 untraced)
}

func (p *pendingOp) op() *pendingOp { return p }

// awaitReply blocks until the operation is answered or failed, or until
// wait has elapsed (the caller then retransmits).
func (t *Transport) awaitReply(th *kernel.Thread, p *pendingOp, wait sim.Time) {
	deadline := t.k.Engine().Now() + wait
	for !p.done && p.err == nil {
		if !p.cond.WaitUntil(th, deadline) {
			return
		}
	}
}

// pendingReq tracks a client-side outstanding request. It is reused (see
// releaseReq).
type pendingReq struct {
	pendingOp
	resp []byte
}

// takeFree pops a record off a free list, or makes one.
func takeFree[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	p := (*free)[n-1]
	*free = (*free)[:n-1]
	return p
}

// ErrTimeout is returned when a request exhausts its retries.
type ErrTimeout struct {
	Dst   int
	ReqID uint32
}

func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("transport: request %d to CAB %d timed out", e.ReqID, e.Dst)
}

// Request sends data to the server mailbox (dst, dstBox) and blocks until
// the response arrives, retransmitting on timeout with exponential backoff.
// A destination declared dead by the heartbeat monitor fails immediately
// with ErrPeerDead.
func (t *Transport) Request(th *kernel.Thread, dst int, dstBox, srcBox uint16, data []byte) ([]byte, error) {
	return t.RequestOpts(th, dst, dstBox, srcBox, data, SendOpts{})
}

// RequestOpts is Request with a priority class and deadline. With overload
// control armed the operation passes sender-side admission first and can
// fail fast with ErrOverload or ErrDeadlineExpired; the class and deadline
// ride the wire header to the server. The outcome — latency, success, and
// the root trace id — is reported to the SLO engine when one is armed.
// data is copied into a wire of its own for each attempt; the caller is
// blocked in the call meanwhile. data is never kept or written, so the
// caller may reuse it as soon as the call returns.
func (t *Transport) RequestOpts(th *kernel.Thread, dst int, dstBox, srcBox uint16, data []byte, opts SendOpts) (resp []byte, err error) {
	err = t.reliableOp(th, slo.KindReqResp, dst, opts, nil, func() (uint64, error) {
		t.nextReq++
		reqID := t.nextReq
		pend := takeFree(&t.freeReqs)
		pend.pendingOp = pendingOp{dst: dst}
		t.pending[reqID] = pend
		defer t.releaseReq(reqID, pend)

		h := &Header{
			Proto: ProtoRequest, Src: uint16(t.self), Dst: uint16(dst),
			SrcBox: srcBox, DstBox: dstBox,
			MsgID: reqID, Total: uint32(len(data)),
			Class: opts.Class, Deadline: opts.Deadline,
		}
		t.stats.Requests++

		for attempt := 0; attempt <= reqRetries; attempt++ {
			if attempt > 0 {
				// Deadline check at the retransmit queueing point: expired
				// requests are not worth another round trip.
				if err := t.expireCheck(dst, opts); err != nil {
					return pend.traceID, err
				}
				t.stats.Retransmits++
				t.fr.Note(obs.FRetransmit, t.frName, int64(dst), int64(attempt))
				t.fl.Retrans(t.self, dst, byte(ProtoRequest))
			}
			if err := t.sendData(th, dst, t.wire(h, data), opts); err != nil {
				return pend.traceID, err
			}
			t.awaitReply(th, &pend.pendingOp,
				backoffWait(t.params.ReqTimeout, attempt, t.self, dst, reqID))
			if pend.done {
				resp = pend.resp
				return pend.traceID, nil
			}
			if pend.err != nil {
				return pend.traceID, pend.err
			}
		}
		return pend.traceID, &ErrTimeout{Dst: dst, ReqID: reqID}
	})
	return resp, err
}

// releaseReq ends a request's client record: it leaves the pending map,
// which was the only way to reach it, and goes on the free list.
func (t *Transport) releaseReq(reqID uint32, pend *pendingReq) {
	delete(t.pending, reqID)
	pend.resp = nil
	t.freeReqs = append(t.freeReqs, pend)
}

// recvRequest handles an arriving request at the server (interrupt level).
func (t *Transport) recvRequest(h *Header, payload []byte, sp *trace.Span) {
	key := reqKey{src: h.Src, reqID: h.MsgID}
	if a, st := t.once.lookup(key); st != onceNew {
		// Duplicate: of an answered request — resend the response — or
		// of one still being served — suppress.
		t.stats.DupRequests++
		if st == onceAnswered {
			t.resend(ProtoResponse, h, a, 0, sp)
		}
		return
	}
	if !t.recvAdmit(h, sp) {
		// Expired or pressure-shed: the sender was told with a
		// fast-reject instead of being left to time out.
		return
	}
	if t.deliver(h, payload, sp) {
		t.once.begin(key)
	}
}

// Respond sends the response for a request message previously taken out of
// a server mailbox, and keeps a copy of data for duplicate suppression.
func (t *Transport) Respond(th *kernel.Thread, req *kernel.Message, data []byte) error {
	return t.respond(th, ProtoResponse, &t.once, req, data)
}

// respond keeps data in once as the answer to req and sends it, as one
// response packet or a VMTP response group. The answer inherits the
// request's scheduling class but not its deadline: the client is already
// blocked waiting, so dropping a late answer would only force a
// retransmission.
func (t *Transport) respond(th *kernel.Thread, proto Proto, once *atMostOnce, req *kernel.Message, data []byte) error {
	opts := SendOpts{Class: Class(req.Class)}
	h := t.answerHeader(proto, uint16(req.Src), req.SrcBox, req.Tag, data, opts.Class)
	once.answer(reqKey{src: uint16(req.Src), reqID: req.Tag}, data, opts.Class)
	t.stats.Responses++
	// Chain the answer into the request's trace tree: with the request's
	// root as the thread span, sendWire creates the answer's message span
	// as a child, so the whole operation is one causality tree. The tail
	// sampler decides the tree at the request's delivery (its first root
	// close) and late answer spans follow that verdict; the client's SLO
	// exemplar (the root id it sees on the answer) then names the same tree.
	prev := th.SetSpan(req.Span)
	defer th.SetSpan(prev)
	if proto == ProtoResponse {
		return t.sendData(th, int(req.Src), t.wire(&h, data), opts)
	}
	return t.sendGroup(th, int(req.Src), &h, data, 0, opts)
}

// answerHeader heads an answer to request id from (dst, dstBox) alike on its
// first send and every resend (a group's packet fields come from groupWire).
func (t *Transport) answerHeader(proto Proto, dst, dstBox uint16, id uint32, data []byte, class Class) Header {
	return Header{
		Proto: proto, Src: uint16(t.self), Dst: dst, DstBox: dstBox,
		MsgID: id, Total: uint32(len(data)), Class: class,
	}
}

// resend re-encodes a kept answer for h, a duplicate of its request or a
// NACK, and queues the packets mask does not name.
func (t *Transport) resend(proto Proto, h *Header, a answer, mask uint32, sp *trace.Span) {
	rh := t.answerHeader(proto, h.Src, h.SrcBox, h.MsgID, a.data, a.class)
	if proto == ProtoResponse {
		t.enqueueControl(int(h.Src), t.wire(&rh, a.data), sp)
		return
	}
	for i := range groupSize(len(a.data), 0) {
		if mask&(1<<i) == 0 {
			t.enqueueControl(int(h.Src), t.groupWire(&rh, a.data, i), sp)
		}
	}
}

// recvResponse handles an arriving response at the client (interrupt
// level).
func (t *Transport) recvResponse(h *Header, payload []byte, sp *trace.Span) {
	pend, ok := t.pending[h.MsgID]
	if !ok || pend.done {
		return // response to an abandoned or already-answered request
	}
	pend.resp = append([]byte(nil), payload...)
	pend.done = true
	t.noteSuccess(pend.dst)
	pend.traceID = sp.Root().ID()
	// The response message span is an ancestor of the wire span here, a
	// child of the request's root (Respond chains it). Close any still-open
	// ancestors, then extend the RPC root to the response's arrival so the
	// root spans the full round trip.
	t.endOpenAncestors(sp)
	sp.Root().End()
	pend.cond.Broadcast()
}
