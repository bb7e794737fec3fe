package transport

import (
	"fmt"

	"repro/internal/cab"
	"repro/internal/datalink"
	"repro/internal/fiber"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/flow"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MaxData is the largest payload of a single packet-switched transport
// packet. Larger messages either use circuit switching (datagrams,
// requests) or are fragmented (byte streams).
const MaxData = datalink.MaxPacketPayload - HeaderSize

// The transport's per-packet protocol costs, charged to the CAB CPU.
const (
	// procSend is per-packet send-side protocol processing (charged in
	// the sending thread's context).
	procSend = 3 * sim.Microsecond
	// procRecv is per-packet receive-side processing (interrupt level).
	procRecv = 2500 * sim.Nanosecond
)

// The transport's recovery timing, sized to the paper's latency budget.
const (
	// rto is the byte-stream retransmission timeout.
	rto = 2 * sim.Millisecond
	// maxRTOExpiries bounds consecutive byte-stream retransmission
	// timeouts: after this many RTO expiries with no ack progress,
	// StreamSend gives up with ErrStreamTimeout instead of retrying
	// forever.
	maxRTOExpiries = 64
	// reqRetries is how many times a request is retransmitted after its
	// first send before the caller gets ErrTimeout.
	reqRetries = 3
	// peerMisses is the unanswered-heartbeat threshold at which a peer is
	// declared dead.
	peerMisses = 3
)

// Params are the transport protocol parameters.
type Params struct {
	// Window is the byte-stream sliding window, in packets.
	Window int
	// ReqTimeout is the request-response retransmission timeout.
	ReqTimeout sim.Time
	// HeartbeatInterval enables peer liveness heartbeats: while reliable
	// operations are outstanding, each watched peer is pinged at this
	// interval, and after peerMisses unanswered pings it is declared
	// dead (blocked senders get ErrPeerDead). 0 disables heartbeats.
	HeartbeatInterval sim.Time
	// DisableAckFastPath forces all control packets (acks, cached
	// responses) through the service thread instead of the
	// interrupt-level datalink fast path — an ablation of the paper's
	// "no context switching overhead at the datalink-transport
	// interface" design point (§6.2.1).
	DisableAckFastPath bool
	// Overload arms the overload-control subsystem (overload.go):
	// deadline propagation, priority classes with weighted-deficit send
	// scheduling, sojourn-time admission control, and per-peer circuit
	// breaking. Disabled by default.
	Overload bool
}

// DefaultParams returns parameters meeting the paper's latency budget.
func DefaultParams() Params {
	return Params{
		Window:     8,
		ReqTimeout: 5 * sim.Millisecond,
	}
}

// Stats are transport counters.
type Stats struct {
	DatagramsSent  int64
	McastsSent     int64
	DatagramsRecv  int64
	StreamMsgsSent int64
	StreamMsgsRecv int64
	Requests       int64
	Responses      int64
	Retransmits    int64
	AcksSent       int64
	ChecksumDrops  int64
	MailboxDrops   int64
	DupRequests    int64
	RTOExpiries    int64
	PingsSent      int64
	PongsRecv      int64
	PeersDied      int64
	PeersRevived   int64
	// Misdelivered counts unicast wires that reached a CAB other than
	// their Dst: the HUBs fan a packet out to a second output that a lost
	// close all left connected. Such a copy is dropped undispatched.
	Misdelivered int64
}

// outItem is a control packet queued for the service thread.
type outItem struct {
	dst  int
	wire []byte
	sp   *trace.Span // causal parent (the message that triggered it), or nil
}

// Transport is one CAB's transport instance.
type Transport struct {
	k      *kernel.Kernel
	dl     *datalink.Datalink
	params Params
	self   int

	// store is the system's frame store: the transport's wires, received
	// copies and kept answers are bodies from it, given back once done.
	store *fiber.FrameStore

	boxes map[uint16]*kernel.Mailbox

	// Byte-stream state.
	streamsOut map[streamKey]*streamSender
	streamsIn  map[streamKey]*streamRecv

	// Request-response state.
	nextReq uint32
	pending map[uint32]*pendingReq
	once    atMostOnce // server side: answered and in-service requests

	// Service thread: sends control packets (acks, cached responses)
	// that originate at interrupt level.
	outq    sim.FIFO[outItem]
	outSem  *kernel.Sem
	nextMsg uint32

	// vm holds the VMTP transaction state (created on first use).
	vm *vmtpState

	// Client operation records whose operations have ended, for reuse.
	freeReqs []*pendingReq
	freeVMTP []*vmtpPending

	// Peer liveness (health.go): peers with reliable ops outstanding,
	// plus dead peers watched for revival, and the heartbeat's timer.
	watch   map[int]*peerState
	hb      cab.Timer
	hbArmed bool

	// Continuous telemetry (telemetry.go): flight-recorder board plus
	// pull counters for the sampler and stall watchdog.
	fr           *obs.FlightRecorder
	frName       string
	inflightOps  int64
	completedOps int64
	// windowInFlight is the sum of every outgoing stream's window
	// (setWindow keeps it).
	windowInFlight int64
	// fl is the system flow table (nil when the observatory is off). It
	// is charged retransmissions and local loopback deliveries.
	fl *flow.Table
	// slo receives per-operation outcomes (nil when the SLO engine is
	// off; the hot path is one pointer compare).
	slo *slo.Engine

	// ovl is the overload-control state (overload.go); nil when the
	// subsystem is disabled, and every hook nil-checks it.
	ovl *overload

	// rx holds the received packets whose receive interrupt is queued,
	// oldest first. The CPU runs interrupts in submission order and never
	// drops one, so recvPacketFn, bound once, pops its own packet.
	rx           sim.FIFO[rxPacket]
	recvPacketFn func()

	stats Stats
}

// rxPacket is one received wire packet, the sender's span it carries, and
// the transport's receive span under it.
type rxPacket struct {
	wire    []byte
	sp, rsp *trace.Span
}

// New creates the transport on a datalink and starts its service thread.
// Like datalink.New, it copies its instruments from the kernel.
func New(k *kernel.Kernel, dl *datalink.Datalink, params Params) *Transport {
	t := &Transport{
		k:          k,
		dl:         dl,
		params:     params,
		self:       k.Board().ID(),
		store:      dl.Frames(),
		boxes:      make(map[uint16]*kernel.Mailbox),
		streamsOut: make(map[streamKey]*streamSender),
		streamsIn:  make(map[streamKey]*streamRecv),
		pending:    make(map[uint32]*pendingReq),
		once:       newAtMostOnce(dl.Frames()),
		outSem:     k.NewSem(0),
		watch:      make(map[int]*peerState),
		fr:         k.FlightRecorder(),
		frName:     k.Board().Name() + ".tp",
		fl:         k.Flows(),
		slo:        k.SLO(),
	}
	if params.Overload {
		t.ovl = newOverload(params.HeartbeatInterval)
	}
	t.recvPacketFn = t.recvPacket
	dl.SetReceiver(t.handlePacket)
	k.SpawnDaemon("transport-service", t.serviceLoop)
	t.registerMetrics(k.Registry())
	return t
}

// Stats returns a copy of the counters.
func (t *Transport) Stats() Stats { return t.stats }

// AnswersHeld returns the number of answers the transport keeps, each in a
// body from the store, for duplicate suppression.
func (t *Transport) AnswersHeld() int {
	n := len(t.once.answers)
	if t.vm != nil {
		n += len(t.vm.once.answers)
	}
	return n
}

// registerMetrics auto-registers the transport's counters as read-out
// metrics under <board>.transport.*.
func (t *Transport) registerMetrics(reg *trace.Registry) {
	if reg == nil {
		return
	}
	prefix := t.k.Board().Name() + ".transport"
	reg.Func(prefix+".datagrams_sent", func() float64 { return float64(t.stats.DatagramsSent) })
	reg.Func(prefix+".mcasts_sent", func() float64 { return float64(t.stats.McastsSent) })
	reg.Func(prefix+".datagrams_recv", func() float64 { return float64(t.stats.DatagramsRecv) })
	reg.Func(prefix+".stream_msgs_sent", func() float64 { return float64(t.stats.StreamMsgsSent) })
	reg.Func(prefix+".stream_msgs_recv", func() float64 { return float64(t.stats.StreamMsgsRecv) })
	reg.Func(prefix+".requests", func() float64 { return float64(t.stats.Requests) })
	reg.Func(prefix+".responses", func() float64 { return float64(t.stats.Responses) })
	reg.Func(prefix+".retransmits", func() float64 { return float64(t.stats.Retransmits) })
	reg.Func(prefix+".acks_sent", func() float64 { return float64(t.stats.AcksSent) })
	reg.Func(prefix+".checksum_drops", func() float64 { return float64(t.stats.ChecksumDrops) })
	reg.Func(prefix+".mailbox_drops", func() float64 { return float64(t.stats.MailboxDrops) })
	reg.Func(prefix+".dup_requests", func() float64 { return float64(t.stats.DupRequests) })
	reg.Func(prefix+".stream.rto_expiries", func() float64 { return float64(t.stats.RTOExpiries) })
	reg.Func(prefix+".pings_sent", func() float64 { return float64(t.stats.PingsSent) })
	reg.Func(prefix+".pongs_recv", func() float64 { return float64(t.stats.PongsRecv) })
	reg.Func(prefix+".peers_died", func() float64 { return float64(t.stats.PeersDied) })
	reg.Func(prefix+".peers_revived", func() float64 { return float64(t.stats.PeersRevived) })
	t.registerOverloadMetrics(reg, prefix)
}

// Kernel returns the owning kernel.
func (t *Transport) Kernel() *kernel.Kernel { return t.k }

// Self returns the local CAB id.
func (t *Transport) Self() int { return t.self }

// Register binds a mailbox to a local box number; incoming messages
// addressed to it are delivered there.
func (t *Transport) Register(box uint16, mb *kernel.Mailbox) {
	t.boxes[box] = mb
}

// Mailbox returns the mailbox registered at box (nil if none).
func (t *Transport) Mailbox(box uint16) *kernel.Mailbox { return t.boxes[box] }

// serviceLoop drains the control-packet queue. Acks and cached-response
// retransmissions are generated at interrupt level but must be transmitted
// from thread context (frame transmission can block on flow control).
func (t *Transport) serviceLoop(th *kernel.Thread) {
	for {
		t.outSem.P(th)
		if t.ovl != nil {
			t.serviceClassed(th)
			continue
		}
		if t.outq.Len() == 0 {
			continue
		}
		it := t.outq.Pop()
		prev := th.SetSpan(it.sp)
		t.sendWire(th, it.dst, it.wire)
		th.SetSpan(prev)
	}
}

// enqueueControl sends a control packet (ack, resent answer), taking its
// wire. The fast path transmits straight from interrupt context; when the
// datalink is busy or flow-controlled, the packet goes to the service thread.
// sp is the trace span of the message being answered (nil when untraced).
func (t *Transport) enqueueControl(dst int, wire []byte, sp *trace.Span) {
	if !t.params.DisableAckFastPath && dst != t.self &&
		len(wire) <= datalink.MaxPacketPayload &&
		t.dl.TrySendPacketInterrupt(dst, wire, procSend, sp) {
		t.store.PutBody(wire)
		return
	}
	if t.ovl != nil {
		t.ovl.enqueue(ovItem{
			dst: dst, wire: wire, sp: sp,
			deadline: wireDeadline(wire), enq: t.k.Engine().Now(),
		}, wireClass(wire))
		t.outSem.V()
		return
	}
	t.outq.Push(outItem{dst: dst, wire: wire, sp: sp})
	t.outSem.V()
}

// wire encodes a packet of h and payload in a body from the store, which
// sendWire or enqueueControl gives back once the datalink has copied it. A
// wire too large for packet switching goes by circuit, which holds it by
// reference and never gives it back, so it is a plain allocation.
func (t *Transport) wire(h *Header, payload []byte) []byte {
	n := HeaderSize + h.extSize() + len(payload)
	if n > datalink.MaxPacketPayload {
		return encodeInto(make([]byte, n), h, payload)
	}
	return encodeInto(t.store.Body(n), h, payload)
}

// putWire gives a wire from wire back to the store; the garbage collector
// takes a circuit's.
func (t *Transport) putWire(w []byte) {
	if len(w) <= datalink.MaxPacketPayload {
		t.store.PutBody(w)
	}
}

// loopbackDelay approximates the cost of a packet looping through the CAB's
// own fiber interface (the HUB can connect a port to itself, but local
// deliveries never leave the board: the datalink hands them straight back).
const loopbackDelay = 2 * sim.Microsecond

// sendWire transmits an encoded packet, choosing packet switching for
// anything that fits an input queue and circuit switching otherwise, and
// takes the wire (a circuit's goes to the garbage collector). Packets
// addressed to this CAB (tasks co-resident on one CAB) are looped back
// locally.
// With tracing on, each sendWire starts a message span: a root when the
// calling thread carries no span (a fresh one-way message), a child when it
// does (e.g. a control packet answering a traced message). The span rides
// the packet across the network and is closed by the receiver at delivery.
func (t *Transport) sendWire(th *kernel.Thread, dst int, wire []byte) error {
	var sp *trace.Span
	if tr := t.k.Tracer(); tr != nil {
		sp = tr.Start(th.Span(), trace.LayerApp, t.k.Board().Name(), "msg")
		// Stamp the wire protocol byte so the tail sampler can apply
		// per-class latency bounds (only consulted on root spans).
		sp.SetTag(wire[0])
		prev := th.SetSpan(sp)
		defer th.SetSpan(prev)
	}
	tsp := sp.Child(trace.LayerTransport, t.k.Board().Name(), "tp-send")
	th.Compute(procSend)
	tsp.End()
	if dst == t.self {
		t.fl.Account(t.self, dst, wire[0], len(wire), 0)
		t.k.Engine().After(loopbackDelay, func() {
			t.handlePacket(wire, sp)
			t.putWire(wire)
		})
		return nil
	}
	if len(wire) > datalink.MaxPacketPayload {
		return t.dl.SendCircuit(th, dst, wire)
	}
	defer t.store.PutBody(wire)
	return t.dl.SendPacket(th, dst, wire)
}

// reliableOp is the frame every reliable operation (request, stream
// message, VMTP transaction) runs in. Sender-side admission and the
// dead-peer gate fail it fast; conn, for a protocol whose connection carries
// one message at a time (nil otherwise), then serializes it; the peer is
// watched and the operation counted in flight while body runs; and the
// outcome — latency, success, and the root trace id body returns (0
// untraced) — is reported to the SLO engine when one is armed.
func (t *Transport) reliableOp(th *kernel.Thread, kind slo.OpKind, dst int, opts SendOpts, conn *kernel.Sem, body func() (uint64, error)) (err error) {
	var traceID uint64
	start := t.k.Engine().Now()
	defer func() { t.observe(kind, opts.Class, start, err == nil, traceID) }()
	if err = t.admit(dst, opts); err != nil {
		return err
	}
	if err = t.peerGate(dst); err != nil {
		return err
	}
	if conn != nil {
		conn.P(th)
		defer conn.V()
	}
	t.watchPeer(dst)
	defer t.unwatchPeer(dst)
	t.opStart()
	defer t.opDone()
	traceID, err = body()
	return err
}

// SendDatagram transmits data to (dst, dstBox) with no delivery guarantee
// ("a direct interface to the datalink layer... should only be used by
// applications that can tolerate or recover from lost packets"). data is
// copied into the wire; it is never kept or written, so the caller may reuse
// it as soon as the call returns.
func (t *Transport) SendDatagram(th *kernel.Thread, dst int, dstBox, srcBox uint16, data []byte) error {
	t.opStart()
	defer t.opDone()
	t.nextMsg++
	h := &Header{
		Proto: ProtoDatagram, Src: uint16(t.self), Dst: uint16(dst),
		SrcBox: srcBox, DstBox: dstBox,
		MsgID: t.nextMsg, Total: uint32(len(data)),
	}
	t.stats.DatagramsSent++
	return t.sendWire(th, dst, t.wire(h, data))
}

// handlePacket is the datalink receiver: it runs at interrupt level after
// the packet has been DMAed out of the input queue, and copies the wire,
// which must wait on rx for its receive interrupt. sp is the sender's trace
// span carried across the wire (nil when untraced).
func (t *Transport) handlePacket(wire []byte, sp *trace.Span) {
	rsp := sp.Child(trace.LayerTransport, t.k.Board().Name(), "tp-recv")
	t.rx.Push(rxPacket{wire: append(t.store.Body(len(wire))[:0], wire...), sp: sp, rsp: rsp})
	t.k.Board().CPU.RunInterrupt(procRecv, t.recvPacketFn)
}

// recvPacket is the receive interrupt of the oldest queued packet: it
// decodes the header, on the stack, and dispatches on the protocol. A
// unicast wire for another CAB is dropped first: the HUBs fanned it out to
// this CAB as well as its destination (see Stats.Misdelivered). Every
// protocol copies what it keeps, so the wire goes back to the store on
// every path.
func (t *Transport) recvPacket() {
	p := t.rx.Pop()
	defer t.store.PutBody(p.wire)
	defer p.rsp.End()
	h, payload, err := Decode(p.wire)
	if err != nil {
		// Damaged or malformed: drop; peers recover by retransmission
		// where the protocol provides it.
		t.stats.ChecksumDrops++
		p.rsp.MarkError()
		return
	}
	if h.Dst != BroadcastDst && int(h.Dst) != t.self {
		t.stats.Misdelivered++
		p.rsp.MarkError()
		return
	}
	sp := p.sp
	switch h.Proto {
	case ProtoDatagram:
		t.recvDatagram(&h, payload, sp)
	case ProtoStream:
		t.recvStream(&h, payload, sp)
	case ProtoStreamAck:
		t.recvStreamAck(&h)
	case ProtoRequest:
		t.recvRequest(&h, payload, sp)
	case ProtoResponse:
		t.recvResponse(&h, payload, sp)
	case ProtoVSend:
		t.recvVSend(&h, payload, sp)
	case ProtoVResp:
		t.recvVResp(&h, payload, sp)
	case ProtoVNack:
		t.recvVNack(&h, payload, sp)
	case ProtoPing:
		t.recvPing(&h, sp)
	case ProtoPong:
		t.recvPong(&h)
	case ProtoReject:
		t.recvReject(&h)
	}
}

// deliver places a complete message into a registered mailbox. It reports
// false when the box is missing or full (the message is dropped; reliable
// protocols then withhold acknowledgment). On success the traced message is
// complete: its root span is closed at delivery time.
func (t *Transport) deliver(h *Header, data []byte, sp *trace.Span) bool {
	mb := t.boxes[h.DstBox]
	if mb == nil {
		t.stats.MailboxDrops++
		t.markDeliveryError(h, sp)
		return false
	}
	msg, ok := mb.TryPut(data, int(h.Src), h.MsgID)
	if !ok {
		t.stats.MailboxDrops++
		t.markDeliveryError(h, sp)
		return false
	}
	msg.SrcBox = h.SrcBox
	if h.Class != 0 || h.Deadline != 0 {
		mb.Classify(msg, uint8(h.Class), h.Deadline)
	}
	msg.Span = sp.Root()
	sp.Root().End()
	return true
}

// endOpenAncestors closes every still-open span from sp up to the root —
// the delivery point of a message whose spans were chained onto another
// tree (a response onto its request's root), where the message span is no
// longer the root that delivery would otherwise close. Ended ancestors are
// left alone (End would extend them).
func (t *Transport) endOpenAncestors(sp *trace.Span) {
	for a := sp; a != nil; a = a.Parent() {
		if !a.Ended() {
			a.End()
		}
	}
}

// markDeliveryError flags a dropped delivery's trace tree as anomalous —
// but only for reliable protocols, where a mailbox drop forces a
// retransmission round. Datagram loss is expected behavior ("applications
// that can tolerate or recover from lost packets"), not an anomaly worth
// retaining a trace for.
func (t *Transport) markDeliveryError(h *Header, sp *trace.Span) {
	if h.Proto != ProtoDatagram {
		sp.MarkError()
	}
}

func (t *Transport) recvDatagram(h *Header, payload []byte, sp *trace.Span) {
	if t.deliver(h, payload, sp) {
		t.stats.DatagramsRecv++
	}
}

func (t *Transport) String() string {
	return fmt.Sprintf("transport(cab%d)", t.self)
}

// BroadcastDst is the Dst value of a multicast datagram (no single
// destination: the crossbar tree fans the one copy out).
const BroadcastDst = 0xFFFF

// SendDatagramMulticast delivers one datagram to the same box on every CAB
// in dsts, with a single copy on the sender's fiber — the hardware
// multicast of paper §4.2.2/§4.2.4. Like the unicast datagram it is
// unreliable: the crossbar tree has no per-branch acknowledgments.
func (t *Transport) SendDatagramMulticast(th *kernel.Thread, dsts []int, dstBox, srcBox uint16, data []byte) error {
	t.opStart()
	defer t.opDone()
	t.nextMsg++
	h := &Header{
		Proto: ProtoDatagram, Src: uint16(t.self), Dst: BroadcastDst,
		SrcBox: srcBox, DstBox: dstBox,
		MsgID: t.nextMsg, Total: uint32(len(data)),
	}
	wire := t.wire(h, data)
	th.Compute(procSend)
	t.stats.DatagramsSent++
	t.stats.McastsSent++
	if len(wire) > datalink.MaxPacketPayload {
		return t.dl.SendMulticastCircuit(th, dsts, wire)
	}
	defer t.store.PutBody(wire)
	return t.dl.SendMulticastPacket(th, dsts, wire)
}
