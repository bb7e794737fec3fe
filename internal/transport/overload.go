package transport

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Overload control (default-off): deadline propagation, priority classes,
// admission control, and circuit breaking. The CAB offloads protocol work
// precisely so the backplane stays responsive when hosts saturate; this
// subsystem makes saturation degrade gracefully instead of driving every
// queue to timeout:
//
//   - deadlines ride the wire header and are checked at every queueing
//     point (admission, the classed CAB send queue, retransmit loops, the
//     kernel mailbox via Message.Expired), so expired work is shed before
//     it burns CAB CPU or fiber credit;
//   - priority classes (critical/normal/bulk) get weighted-deficit
//     scheduling of the CAB send queue;
//   - admission control is a CoDel-style sojourn-time controller on the
//     send queue, shedding lowest-class-first with a deterministic
//     ErrOverload fast-reject (the caller learns in one RTT, not after
//     RTO·backoff);
//   - a per-peer circuit breaker trips after consecutive fast-rejects and
//     re-admits half-open on a jittered cooldown (reusing backoff.go), so
//     recovery avoids a thundering herd. Critical traffic bypasses the
//     breaker and the sojourn shedder — it is shed last by design and
//     doubles as the half-open probe.
//
// When Params.Overload is false the transport never allocates the
// overload state: every hook is a nil-check no-op and runs are
// byte-identical to a build without the subsystem.

// SendOpts carry the application-stamped priority class and absolute
// virtual-time deadline of one reliable operation. The zero value (normal
// class, no deadline) encodes exactly like pre-overload traffic.
type SendOpts struct {
	Class    Class
	Deadline sim.Time
}

const (
	// sojournTarget is the CoDel-style target sojourn time of the classed
	// send queue. Sojourns above target for a full sojournWindow start
	// shedding bulk admissions; sojourns above twice the target shed
	// normal too. Critical is never shed.
	sojournTarget = 100 * sim.Microsecond
	sojournWindow = 500 * sim.Microsecond
	// breakerTrip is how many consecutive peer fast-rejects open that
	// peer's circuit breaker.
	breakerTrip = 8
)

// quantum is the weighted-deficit-round-robin quantum in bytes per round.
var quantum = [NumClasses]int{ClassCritical: 4096, ClassNormal: 2048, ClassBulk: 1024}

// ErrOverload is the deterministic admission fast-reject: the operation
// was refused — locally (sojourn shedding, open breaker) or by the peer
// (ProtoReject) — without consuming CAB CPU or fiber credit.
type ErrOverload struct {
	Peer   int
	Class  Class
	Reason string
}

func (e *ErrOverload) Error() string {
	return fmt.Sprintf("transport: %s op to CAB %d shed (%s)", e.Class, e.Peer, e.Reason)
}

// ErrDeadlineExpired reports work abandoned because its deadline passed.
type ErrDeadlineExpired struct {
	Deadline sim.Time
	Now      sim.Time
}

func (e *ErrDeadlineExpired) Error() string {
	return fmt.Sprintf("transport: deadline %v expired at %v", e.Deadline, e.Now)
}

// ProtoReject reason codes, carried in Header.Offset.
const (
	rejectOverload = iota // receiver under pressure refused admission
	rejectExpired         // the message's deadline had already passed
)

// ovItem is one packet queued on the classed CAB send queue.
type ovItem struct {
	dst      int
	wire     []byte
	sp       *trace.Span
	deadline sim.Time
	enq      sim.Time
}

// breaker is one peer's circuit-breaker state.
type breaker struct {
	consec   int // consecutive fast-rejects from this peer
	trips    int // lifetime trips (grows the cooldown backoff)
	open     bool
	probing  bool // a half-open probe is in flight
	reopenAt sim.Time
}

// overload is the per-transport overload-control state (nil when the
// subsystem is disabled; every method tolerates a nil receiver).
type overload struct {
	// cooldown is the breakers' base half-open probe delay, grown and
	// jittered per trip via the shared retransmission backoff.
	cooldown sim.Time

	// Classed CAB send queue, drained by the service thread in
	// weighted-deficit-round-robin order.
	q       [NumClasses]sim.FIFO[ovItem]
	deficit [NumClasses]int
	queued  int

	// CoDel-style sojourn controller: above is the first instant the
	// dequeue sojourn exceeded target (0 while below), shedLevel is the
	// current admission-shedding tier (0 none, 1 bulk, 2 bulk+normal).
	above     sim.Time
	shedLevel int

	brk map[int]*breaker

	sheds        [NumClasses]int64
	expired      int64
	rejectsSent  int64
	rejectsRecv  int64
	breakerTrips int64
	breakerOpen  int64 // gauge: breakers currently open
}

// newOverload builds the state for a transport with the given heartbeat
// interval. The breaker cooldown is that interval (a peer that answers
// pings is worth probing again that soon), or 1ms without heartbeats.
func newOverload(heartbeat sim.Time) *overload {
	cooldown := heartbeat
	if cooldown == 0 {
		cooldown = sim.Millisecond
	}
	return &overload{cooldown: cooldown, brk: make(map[int]*breaker)}
}

// enqueue appends one packet to its class queue.
func (o *overload) enqueue(it ovItem, c Class) {
	if c >= NumClasses {
		c = ClassNormal
	}
	o.q[c].Push(it)
	o.queued++
}

// dequeue pops the next packet in weighted-deficit-round-robin order:
// classes are visited highest-precedence-first, a class may send while its
// deficit covers the head packet, and every backlogged class earns its
// quantum each round — bulk is throttled under contention, never starved.
func (o *overload) dequeue() (ovItem, bool) {
	if o.queued == 0 {
		return ovItem{}, false
	}
	for {
		for _, c := range classPrecedence {
			if o.q[c].Len() == 0 {
				continue
			}
			head := o.q[c].Peek()
			if o.deficit[c] < len(head.wire) {
				continue
			}
			o.deficit[c] -= len(head.wire)
			o.q[c].Pop()
			o.queued--
			if o.q[c].Len() == 0 {
				o.deficit[c] = 0 // classic DRR: empty queues hold no credit
			}
			return head, true
		}
		for _, c := range classPrecedence {
			if o.q[c].Len() > 0 {
				o.deficit[c] += quantum[c]
			}
		}
	}
}

// observeSojourn updates the CoDel-style controller with one dequeue
// sojourn. Shedding engages only after sojourns stay above target for a
// full window, and disengages the moment one packet gets through quickly.
func (o *overload) observeSojourn(now, sojourn sim.Time) {
	if sojourn <= sojournTarget {
		o.above = 0
		o.shedLevel = 0
		return
	}
	if o.above == 0 {
		o.above = now
		return
	}
	if now-o.above < sojournWindow {
		return
	}
	lvl := 1
	if sojourn > 2*sojournTarget {
		lvl = 2
	}
	if lvl > o.shedLevel {
		o.shedLevel = lvl
	}
}

// shedByLevel reports whether class c is shed at the current sojourn tier.
func (o *overload) shedByLevel(c Class) bool {
	switch c {
	case ClassBulk:
		return o.shedLevel >= 1
	case ClassNormal:
		return o.shedLevel >= 2
	default:
		return false
	}
}

// admit is the sender-side admission check at the top of every reliable
// operation. With the subsystem disabled it is a single nil-compare —
// zero allocations, zero simulated-time cost.
func (t *Transport) admit(dst int, opts SendOpts) error {
	o := t.ovl
	if o == nil {
		return nil
	}
	if opts.Class >= NumClasses {
		return fmt.Errorf("transport: bad priority class %d", opts.Class)
	}
	now := t.k.Engine().Now()
	if opts.Deadline != 0 && now >= opts.Deadline {
		o.expired++
		t.fr.Note(obs.FDeadlineExpired, t.frName, int64(dst), int64(opts.Class))
		return &ErrDeadlineExpired{Deadline: opts.Deadline, Now: now}
	}
	if opts.Class != ClassCritical {
		if b := o.brk[dst]; b != nil && b.open {
			if now >= b.reopenAt && !b.probing {
				b.probing = true // half-open: this op is the probe
			} else {
				o.sheds[opts.Class]++
				t.fr.Note(obs.FShed, t.frName, int64(dst), int64(opts.Class))
				return &ErrOverload{Peer: dst, Class: opts.Class, Reason: "circuit open"}
			}
		}
		if o.shedByLevel(opts.Class) {
			o.sheds[opts.Class]++
			t.fr.Note(obs.FShed, t.frName, int64(dst), int64(opts.Class))
			return &ErrOverload{Peer: dst, Class: opts.Class, Reason: "send-queue sojourn"}
		}
	}
	return nil
}

// sendData transmits a data packet of a reliable operation. Disabled, it
// is the original synchronous send; enabled, the packet joins the classed
// send queue and the service thread transmits it in WDRR order.
func (t *Transport) sendData(th *kernel.Thread, dst int, wire []byte, opts SendOpts) error {
	if t.ovl == nil {
		return t.sendWire(th, dst, wire)
	}
	t.ovl.enqueue(ovItem{
		dst: dst, wire: wire, sp: th.Span(),
		deadline: opts.Deadline, enq: t.k.Engine().Now(),
	}, opts.Class)
	t.outSem.V()
	return nil
}

// serviceClassed is the service-thread body when overload control is
// armed: dequeue in WDRR order, drop expired packets before they burn
// fiber credit, feed the sojourn controller, transmit.
func (t *Transport) serviceClassed(th *kernel.Thread) {
	o := t.ovl
	it, ok := o.dequeue()
	if !ok {
		return
	}
	now := t.k.Engine().Now()
	if it.deadline != 0 && now >= it.deadline {
		o.expired++
		t.fr.Note(obs.FDeadlineExpired, t.frName, int64(it.dst), int64(wireClass(it.wire)))
		t.putWire(it.wire)
		return
	}
	o.observeSojourn(now, now-it.enq)
	prev := th.SetSpan(it.sp)
	t.sendWire(th, it.dst, it.wire)
	th.SetSpan(prev)
}

// expireCheck is the queueing-point deadline check inside retransmit
// loops: it reports ErrDeadlineExpired once the deadline passed (counted
// when the subsystem is armed; the check itself works either way).
func (t *Transport) expireCheck(dst int, opts SendOpts) error {
	if opts.Deadline == 0 {
		return nil
	}
	now := t.k.Engine().Now()
	if now < opts.Deadline {
		return nil
	}
	if t.ovl != nil {
		t.ovl.expired++
		t.fr.Note(obs.FDeadlineExpired, t.frName, int64(dst), int64(opts.Class))
	}
	return &ErrDeadlineExpired{Deadline: opts.Deadline, Now: now}
}

// mailboxPressure grades a destination mailbox's occupancy: 0 healthy,
// 1 at >=3/4 full (shed bulk), 2 at >=7/8 full (shed normal too).
func (t *Transport) mailboxPressure(box uint16) int {
	mb := t.boxes[box]
	if mb == nil {
		return 0
	}
	c := mb.Capacity()
	if c <= 0 {
		return 0
	}
	u := mb.UsedBytes()
	switch {
	case u*8 >= c*7:
		return 2
	case u*4 >= c*3:
		return 1
	}
	return 0
}

// recvAdmit is the receiver-side admission check for RPC-style arrivals
// (requests and VMTP groups): expired work and pressure-shed classes are
// refused with a ProtoReject so the sender learns in one RTT. It reports
// false when the packet must not be processed further.
func (t *Transport) recvAdmit(h *Header, sp *trace.Span) bool {
	o := t.ovl
	if o == nil {
		return true
	}
	if h.Deadline != 0 && t.k.Engine().Now() >= h.Deadline {
		o.expired++
		t.fr.Note(obs.FDeadlineExpired, t.frName, int64(h.Src), int64(h.Class))
		t.sendReject(h, rejectExpired, sp)
		return false
	}
	lvl := t.mailboxPressure(h.DstBox)
	if lvl == 0 || h.Class == ClassCritical {
		return true
	}
	if (h.Class == ClassBulk && lvl >= 1) || (h.Class == ClassNormal && lvl >= 2) {
		o.sheds[h.Class]++
		t.fr.Note(obs.FShed, t.frName, int64(h.Src), int64(h.Class))
		t.sendReject(h, rejectOverload, sp)
		return false
	}
	return true
}

// sendReject answers an inadmissible arrival with a fast-reject. Seq
// carries the refused protocol so the sender can find its waiter; Offset
// carries the reason.
func (t *Transport) sendReject(h *Header, reason uint32, sp *trace.Span) {
	rh := &Header{
		Proto: ProtoReject, Class: h.Class,
		Src: uint16(t.self), Dst: h.Src,
		SrcBox: h.DstBox, DstBox: h.SrcBox,
		MsgID: h.MsgID, Seq: uint32(h.Proto), Offset: reason,
		Deadline: h.Deadline,
	}
	t.ovl.rejectsSent++
	t.enqueueControl(int(h.Src), t.wire(rh, nil), sp)
}

// recvReject wakes the waiter of a fast-rejected operation with a
// deterministic error and feeds the peer's circuit breaker (expired
// rejects carry no overload signal and leave the breaker alone).
func (t *Transport) recvReject(h *Header) {
	now := t.k.Engine().Now()
	var err error
	if h.Offset == rejectExpired {
		err = &ErrDeadlineExpired{Deadline: h.Deadline, Now: now}
	} else {
		err = &ErrOverload{Peer: int(h.Src), Class: h.Class, Reason: "peer refused admission"}
	}
	switch Proto(h.Seq) {
	case ProtoRequest:
		if pend, ok := t.pending[h.MsgID]; ok && !pend.done && pend.err == nil {
			pend.err = err
			pend.cond.Broadcast()
		}
	case ProtoVSend:
		if t.vm != nil {
			if pend, ok := t.vm.pending[h.MsgID]; ok && !pend.done && pend.err == nil {
				pend.err = err
				pend.cond.Broadcast()
			}
		}
	case ProtoStream:
		key := streamKey{peer: int(h.Src), lbox: h.DstBox, rbox: h.SrcBox}
		if s, ok := t.streamsOut[key]; ok && h.MsgID == s.curMsg && !s.done && s.err == nil {
			s.err = err
			s.cond.Broadcast()
		}
	}
	if o := t.ovl; o != nil {
		o.rejectsRecv++
		if h.Offset != rejectExpired {
			t.noteFastReject(int(h.Src), now)
		}
	}
}

// noteFastReject feeds one peer overload reject into that peer's circuit
// breaker: consecutive rejects past the threshold trip it open, and a
// failed half-open probe re-arms the (jittered, per-trip-growing)
// cooldown.
func (t *Transport) noteFastReject(peer int, now sim.Time) {
	o := t.ovl
	b := o.brk[peer]
	if b == nil {
		b = &breaker{}
		o.brk[peer] = b
	}
	b.consec++
	if b.open {
		if b.probing {
			b.probing = false
			b.trips++
			b.reopenAt = now + backoffWait(o.cooldown, b.trips, t.self, peer, 0)
		}
		return
	}
	if b.consec >= breakerTrip {
		b.open = true
		b.trips++
		b.reopenAt = now + backoffWait(o.cooldown, b.trips, t.self, peer, 0)
		o.breakerTrips++
		o.breakerOpen++
		t.fr.Note(obs.FBreakerTrip, t.frName, int64(peer), int64(b.trips))
	}
}

// noteSuccess records a completed reliable operation against the peer:
// the reject streak resets and an open breaker closes (the half-open
// probe, or any critical-class op, succeeded).
func (t *Transport) noteSuccess(peer int) {
	o := t.ovl
	if o == nil {
		return
	}
	b := o.brk[peer]
	if b == nil {
		return
	}
	b.consec = 0
	if b.open {
		b.open = false
		b.probing = false
		o.breakerOpen--
		t.fr.Note(obs.FBreakerClose, t.frName, int64(peer), 0)
	}
}

// maxSeg is the largest per-packet payload for a message stamped with the
// given deadline (the 8-byte wire extension comes out of the budget).
func maxSeg(deadline sim.Time) int {
	if deadline != 0 {
		return MaxData - DeadlineExtSize
	}
	return MaxData
}

// OverloadSheds returns operations shed by admission control (all
// classes; zero when the subsystem is disabled).
func (t *Transport) OverloadSheds() int64 {
	if t.ovl == nil {
		return 0
	}
	var n int64
	for c := 0; c < NumClasses; c++ {
		n += t.ovl.sheds[c]
	}
	return n
}

// OverloadShedsClass returns operations shed in one class.
func (t *Transport) OverloadShedsClass(c Class) int64 {
	if t.ovl == nil || c >= NumClasses {
		return 0
	}
	return t.ovl.sheds[c]
}

// OverloadExpired returns deadline-expired work units shed at any
// queueing point.
func (t *Transport) OverloadExpired() int64 {
	if t.ovl == nil {
		return 0
	}
	return t.ovl.expired
}

// OverloadBreakerOpen returns how many peer circuit breakers are open
// right now.
func (t *Transport) OverloadBreakerOpen() int64 {
	if t.ovl == nil {
		return 0
	}
	return t.ovl.breakerOpen
}

// OverloadBreakerTrips returns lifetime circuit-breaker trips.
func (t *Transport) OverloadBreakerTrips() int64 {
	if t.ovl == nil {
		return 0
	}
	return t.ovl.breakerTrips
}

// OverloadQueued returns packets currently on the classed send queue.
func (t *Transport) OverloadQueued() int64 {
	if t.ovl == nil {
		return 0
	}
	return int64(t.ovl.queued)
}

// OverloadRejects returns fast-rejects sent (as a pressured receiver)
// and received (as a refused sender).
func (t *Transport) OverloadRejects() (sent, recv int64) {
	if t.ovl == nil {
		return 0, 0
	}
	return t.ovl.rejectsSent, t.ovl.rejectsRecv
}

// registerOverloadMetrics exposes the subsystem's counters under
// <board>.transport.overload.* (only when armed).
func (t *Transport) registerOverloadMetrics(reg *trace.Registry, prefix string) {
	if t.ovl == nil {
		return
	}
	reg.Func(prefix+".overload.sheds", func() float64 { return float64(t.OverloadSheds()) })
	reg.Func(prefix+".overload.expired", func() float64 { return float64(t.OverloadExpired()) })
	reg.Func(prefix+".overload.breaker_open", func() float64 { return float64(t.OverloadBreakerOpen()) })
	reg.Func(prefix+".overload.breaker_trips", func() float64 { return float64(t.OverloadBreakerTrips()) })
	reg.Func(prefix+".overload.rejects_sent", func() float64 { return float64(t.ovl.rejectsSent) })
	reg.Func(prefix+".overload.queued", func() float64 { return float64(t.OverloadQueued()) })
	for c := Class(0); c < NumClasses; c++ {
		cc := c
		reg.Func(prefix+".overload.sheds."+cc.String(), func() float64 {
			return float64(t.OverloadShedsClass(cc))
		})
	}
}
