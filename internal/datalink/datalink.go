// Package datalink implements the CAB datalink protocol (paper §6.2.1):
// it "transfers data packets between CABs using HUB commands, manages HUB
// connections, and recovers from framing errors and lost HUB commands".
//
// Sends build the command packets of paper §4.2 — circuit switching (opens,
// wait for reply, data, close all), packet switching (test opens with flow
// control), and the multicast variants of both — from routes computed by
// the topology layer. The receive path follows §6.2.1 exactly: the start of
// packet raises an interrupt; the handler executes an upcall to the
// transport to determine the destination; DMA then drains the packet, and
// completion is delivered back at interrupt level. "The datalink code is
// executed entirely by interrupt handlers and by procedures that are called
// from transport or application threads, so there is no context switching
// overhead at the datalink-transport interface."
package datalink

import (
	"fmt"
	"sort"

	"repro/internal/cab"
	"repro/internal/fiber"
	"repro/internal/hub"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/flow"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// MaxPacketPayload is the largest payload carried by a packet-switched
// packet: the HUB input queue is 1 KB and framing costs 2 bytes (§4.2.3).
// Circuit-switched packets may be arbitrarily large.
const MaxPacketPayload = hub.InputQueueBytes - fiber.FramingBytes

// The datalink software costs, charged to the CAB CPU, consistent with
// the paper's latency budget (<30us CAB-to-CAB including transport).
const (
	// sendSetup: building the command packet and setting up outbound DMA
	// (procedure call in the sender's thread context).
	sendSetup = 2 * sim.Microsecond
	// recvInterrupt: interrupt entry + start-of-packet handling. Kept
	// small by the SPARC's reserved trap register window.
	recvInterrupt = 2 * sim.Microsecond
	// upcall: the transport-layer upcall that determines the destination
	// mailbox from the transport header.
	upcall = 1500 * sim.Nanosecond
	// replyInterrupt: handling a HUB command reply.
	replyInterrupt = sim.Microsecond
)

// The datalink's failure-recovery timing (§4.2.1).
const (
	// openTimeout is how long to wait for a circuit-establishment reply
	// before tearing down with close all and retrying.
	openTimeout = 200 * sim.Microsecond
	// openAttempts is the circuit-establishment attempts before giving up.
	openAttempts = 3
	// probeTimeout is how long a link probe waits for its echo reply
	// before counting a miss.
	probeTimeout = 100 * sim.Microsecond
	// probeMisses is the consecutive-miss threshold at which the prober
	// declares the link dead and fails it over.
	probeMisses = 3
)

// Params are the datalink protocol parameters.
type Params struct {
	// ProbeInterval enables link liveness probing when nonzero: one CAB
	// per HUB echo-probes each of its HUB's inter-HUB links every
	// interval. A system with probing enabled generates events forever;
	// drive it with RunUntil (or stop the probers) rather than Run.
	ProbeInterval sim.Time
}

// Receiver consumes packets delivered by the datalink. It is invoked at
// interrupt level once the packet has been DMAed out of the input queue;
// implementations charge their own CPU costs. payload is valid only until
// the receiver returns; one that keeps it copies it. sp is the originating
// send's trace span (nil when the message is untraced); receivers parent
// their own processing spans under it.
type Receiver func(payload []byte, sp *trace.Span)

// Stats are datalink counters.
type Stats struct {
	PacketsSent     int64
	PacketsReceived int64
	BytesSent       int64
	BytesReceived   int64
	McastsSent      int64
	FramingErrors   int64
	OpenTimeouts    int64
	OpenFailures    int64
	StrayCommands   int64
	ProbesSent      int64
	ProbesLost      int64
}

// Datalink is one CAB's datalink instance.
type Datalink struct {
	k      *kernel.Kernel
	board  *cab.Board
	net    *topo.Network
	router topo.Router

	recv Receiver

	// mu serializes frame transmission so two threads cannot interleave
	// route state on the outgoing fiber.
	mu *kernel.Sem

	// pending open replies by token.
	nextToken uint64
	pending   map[uint64]*pendingOpen

	// The route cache: routes[dst] locates dst's route in slab, its offset
	// shifted left 8 bits over its hop count. Both fit: a route crosses at
	// most topo.MaxHubs HUBs, and with one-byte HUB IDs and ports the slab
	// holds under 1<<24 hops. A miss appends the route to slab, and a flush
	// drops slab whole, so every route handed out stays as it was.
	routes map[int32]uint32
	slab   []topo.Hop

	// Flight-recorder board (nil when telemetry is off; Note is a no-op).
	fr     *obs.FlightRecorder
	frName string

	// fl is the system flow table (nil when the observatory is off;
	// Account is a no-op). Every outgoing frame is charged to its
	// (src, dst, proto) flow with its sender-side queueing time.
	fl *flow.Table

	// The receive pipeline's packets between its stages, oldest first:
	// rxIntr between the start-of-packet interrupt's submission and its
	// run, rxDone between the interrupt and delivery. Every stage is
	// FIFO per datalink, so each stage's one bound method (rxInterruptFn,
	// rxUpcallFn) pops the oldest entry instead of closing over its own
	// packet (see receivePacket).
	rxIntr, rxDone sim.FIFO[rxEntry]
	rxInterruptFn  func()
	rxUpcallFn     func()

	// isend is the one interrupt-level send in progress: it holds mu from
	// TrySendPacketInterrupt until intrSendFn, bound once, transmits it.
	isend      intrSend
	intrSendFn func()

	stats Stats
}

// rxEntry is one received packet and its datalink receive span.
type rxEntry struct {
	it  *fiber.Item
	rsp *trace.Span
}

// intrSend is a packet-switched send waiting for its interrupt to run.
type intrSend struct {
	dst  int
	hops []topo.Hop
	body []byte // taken when the send was accepted
	sp   *trace.Span
}

type pendingOpen struct {
	token uint64
	want  int // replies still expected
	ok    bool
	val   uint64 // combining result (ReplyData of the last reply)
	cond  kernel.Cond
}

// expect registers a fresh token under which want command replies are
// awaited; the commands carrying pend.token may then be sent.
func (d *Datalink) expect(want int) *pendingOpen {
	d.nextToken++
	pend := &pendingOpen{token: d.nextToken, want: want, ok: true}
	d.pending[pend.token] = pend
	return pend
}

// await blocks until every reply pend expects has arrived or timeout
// elapses (negative: no limit), retires the token, and reports whether all
// arrived; pend.ok and pend.val then hold the verdict. A crash counts as
// arrival with ok false (see Crash).
func (d *Datalink) await(th *kernel.Thread, pend *pendingOpen, timeout sim.Time) bool {
	deadline := d.k.Engine().Now() + timeout
	for pend.want > 0 {
		if timeout < 0 {
			pend.cond.Wait(th)
		} else if !pend.cond.WaitUntil(th, deadline) {
			break
		}
	}
	delete(d.pending, pend.token)
	return pend.want == 0
}

// New creates the datalink for a board, routing by router, and registers
// its receive interrupt handler. It copies its instruments from the
// kernel, so kernel.SetInstrumentation comes first.
func New(k *kernel.Kernel, net *topo.Network, router topo.Router) *Datalink {
	d := &Datalink{
		k:       k,
		board:   k.Board(),
		net:     net,
		router:  router,
		mu:      k.NewSem(1),
		pending: make(map[uint64]*pendingOpen),
		routes:  make(map[int32]uint32),
		fr:      k.FlightRecorder(),
		frName:  k.Board().Name() + ".dl",
		fl:      k.Flows(),
	}
	d.rxInterruptFn = d.rxInterrupt
	d.rxUpcallFn = d.rxUpcall
	d.intrSendFn = d.intrSendRun
	d.board.SetItemHandler(d.receiveItem)
	d.registerMetrics(k.Registry())
	return d
}

// SetReceiver registers a packet consumer.
func (d *Datalink) SetReceiver(r Receiver) { d.recv = r }

// Frames returns the system's frame store, which also keeps packet bodies.
func (d *Datalink) Frames() *fiber.FrameStore { return d.net.Frames() }

// take copies a packet-switched payload into a body from the store, which
// goes back with the frame that carries it.
func (d *Datalink) take(payload []byte) []byte {
	return append(d.net.Frames().Body(len(payload))[:0], payload...)
}

// wireProto classifies a frame for flow accounting: every datalink payload
// is an encoded transport packet, whose first wire byte is the protocol.
func wireProto(payload []byte) byte {
	if len(payload) == 0 {
		return 0
	}
	return payload[0]
}

// Stats returns a copy of the datalink counters.
func (d *Datalink) Stats() Stats { return d.stats }

// registerMetrics auto-registers the datalink's counters as read-out
// metrics under <board>.datalink.*.
func (d *Datalink) registerMetrics(reg *trace.Registry) {
	if reg == nil {
		return
	}
	prefix := d.board.Name() + ".datalink"
	reg.Func(prefix+".packets_sent", func() float64 { return float64(d.stats.PacketsSent) })
	reg.Func(prefix+".packets_received", func() float64 { return float64(d.stats.PacketsReceived) })
	reg.Func(prefix+".bytes_sent", func() float64 { return float64(d.stats.BytesSent) })
	reg.Func(prefix+".bytes_received", func() float64 { return float64(d.stats.BytesReceived) })
	reg.Func(prefix+".mcasts_sent", func() float64 { return float64(d.stats.McastsSent) })
	reg.Func(prefix+".framing_errors", func() float64 { return float64(d.stats.FramingErrors) })
	reg.Func(prefix+".open_timeouts", func() float64 { return float64(d.stats.OpenTimeouts) })
	reg.Func(prefix+".open_failures", func() float64 { return float64(d.stats.OpenFailures) })
	reg.Func(prefix+".stray_commands", func() float64 { return float64(d.stats.StrayCommands) })
	reg.Func(prefix+".probes_sent", func() float64 { return float64(d.stats.ProbesSent) })
	reg.Func(prefix+".probes_lost", func() float64 { return float64(d.stats.ProbesLost) })
}

// FlushRoutes discards cached routes, forcing recomputation against the
// current topology state (used after a link fails over, automatically via
// topo.Network.OnChange or by an operator).
//
// The slab is dropped, not truncated: a send that holds a route across the
// flush (a parked interrupt-level send) still holds its own opens.
func (d *Datalink) FlushRoutes() {
	clear(d.routes)
	d.slab = nil
}

// CachedRoutes returns the route cache's length: the destinations it holds
// a route to, and the hops those routes take in its slab.
func (d *Datalink) CachedRoutes() (routes, hops int) { return len(d.routes), len(d.slab) }

// Crash discards the datalink's in-flight state after a board crash: every
// pending open fails (its waiting thread observes a failed circuit) and the
// route cache is dropped. Called by the system-level crash path alongside
// Board.PowerOff.
func (d *Datalink) Crash() {
	tokens := make([]uint64, 0, len(d.pending))
	for tok := range d.pending {
		tokens = append(tokens, tok)
	}
	sort.Slice(tokens, func(i, j int) bool { return tokens[i] < tokens[j] })
	for _, tok := range tokens {
		pend := d.pending[tok]
		pend.ok = false
		pend.want = 0
		pend.cond.Broadcast()
	}
	d.pending = make(map[uint64]*pendingOpen)
	d.FlushRoutes()
}

// Probe tests the liveness of the inter-HUB link leaving port `port` of
// this CAB's HUB (ID hubHere) toward the HUB with ID hubThere: it opens the
// connection, sends an echo command that executes at the far HUB, and waits
// for the out-of-band reply. A dead outbound fiber swallows the echo, so no
// reply arrives and the probe reports false after timeout. The open uses
// the plain retrying variant, which ignores the output's ready bit — a
// wedged (not-ready) register does not block the probe itself, though an
// owned register parks it; either way the timeout bounds the wait.
func (d *Datalink) Probe(th *kernel.Thread, hubHere, hubThere byte, port byte, timeout sim.Time) bool {
	d.mu.P(th)
	defer d.mu.V()
	th.Compute(sendSetup)
	pend := d.expect(1)
	d.stats.ProbesSent++
	d.board.Send(
		d.command(hub.OpOpenRetry, hubHere, port, 0),
		d.command(hub.OpEcho, hubThere, 0, pend.token),
		d.closeAll(),
	)
	if !d.await(th, pend, timeout) || !pend.ok {
		d.stats.ProbesLost++
		return false
	}
	return true
}

// CombContribute contributes one 8-byte operand lane to the local HUB's
// combining engine (in-network computing) and waits for the verdict. It
// returns the slot's value and whether the HUB fully combined it; combined
// false means the caller must fall back to its endpoint algorithm (the HUB
// is dark, the slot flushed partial, or this contribution arrived late).
// err is non-nil only when no reply arrives within timeout — the HUB is
// unreachable (dark fiber, frame error ate the command, or this board
// crashed mid-wait).
//
// Unlike lock commands, a combining command never stalls the CAB's input
// port at the HUB, so the transmit mutex is released before the wait:
// other traffic from this board flows while the slot gathers stragglers.
func (d *Datalink) CombContribute(th *kernel.Thread, op hub.Opcode, group, lane byte, tag, count uint16, seq uint32, operand uint64, timeout sim.Time) (uint64, bool, error) {
	sp := th.Span().Child(trace.LayerDatalink, d.board.Name(), "dl-comb")
	defer sp.End()
	d.mu.P(th)
	th.Compute(sendSetup)
	pend := d.expect(1)
	it := d.command(op, d.localHubID(), group, pend.token)
	it.Comb = &fiber.CombData{Lane: lane, Tag: tag, Count: count, Seq: seq, Operand: operand}
	it.Span = sp
	d.board.Send(it)
	d.mu.V()

	if !d.await(th, pend, timeout) {
		return 0, false, fmt.Errorf("datalink: combining reply lost")
	}
	return pend.val, pend.ok, nil
}

// route returns (and caches) the unicast route to dst, as a view of the
// slab whose capacity ends with the route, so no holder appends over
// another route.
func (d *Datalink) route(dst int) ([]topo.Hop, error) {
	if at, ok := d.routes[int32(dst)]; ok {
		off, n := at>>8, at&0xFF
		return d.slab[off : off+n : off+n], nil
	}
	off := len(d.slab)
	slab, err := d.router.RouteInto(d.slab, d.board.ID(), dst)
	if err != nil {
		return nil, err
	}
	d.slab = slab
	d.routes[int32(dst)] = uint32(off)<<8 | uint32(len(slab)-off)
	return slab[off:len(slab):len(slab)], nil
}

// commandItem returns a command item.
func (d *Datalink) commandItem(op hub.Opcode, hubID, param byte, token uint64) fiber.Item {
	return fiber.Item{
		Kind:    fiber.KindCommand,
		Cmd:     fiber.Command{Op: byte(op), Hub: hubID, Param: param},
		ReplyTo: d.board,
		Token:   token,
	}
}

// command builds a command item in an allocation of its own.
func (d *Datalink) command(op hub.Opcode, hubID, param byte, token uint64) *fiber.Item {
	it := d.commandItem(op, hubID, param, token)
	return &it
}

// closeAll builds the route-teardown command.
func (d *Datalink) closeAll() *fiber.Item {
	return d.command(hub.OpCloseAll, 0xFF, 0, 0)
}

// localHubID returns the datalink ID of the HUB this CAB attaches to.
func (d *Datalink) localHubID() byte {
	return d.net.Hub(d.net.HubOf(d.board.ID())).ID()
}

// sendPacketFrame transmits a packet-switched frame (§4.2.3, §4.2.4) over a
// unicast route or a multicast tree: test opens with retry, the packet
// carrying body, close all. Frame and body go back to the store once every
// CAB reached has consumed its copies (receiveItem, rxUpcall, Item.Clone).
// The test opens need no tracking: a HUB input queue is FIFO, so each test
// open is executed at its HUB before that HUB forwards the packet behind it
// (a parked open stalls the input until it is granted), and nothing keeps
// an executed OpTestOpenRetry — it asks for no reply, so Hub.grant captures
// no closure for it.
func (d *Datalink) sendPacketFrame(hops []topo.Hop, body []byte, sp *trace.Span) {
	n := len(hops)
	f := d.net.Frames().Get(n + 2)
	f.Body = body
	for i, hp := range hops {
		f.Items[i] = d.commandItem(hub.OpTestOpenRetry, hp.HubID, hp.Port, 0)
	}
	f.Items[n] = fiber.Item{Kind: fiber.KindPacket, Payload: body, Span: sp}
	f.Items[n+1] = d.commandItem(hub.OpCloseAll, 0xFF, 0, 0)
	f.Track(n)
	f.Track(n + 1)
	for i := range f.Items {
		d.board.Send(&f.Items[i])
	}
}

// queuedSince returns the sender-side queueing time of a send entered at
// t0: everything up to now beyond the fixed setup cost (transmit mutex,
// flow-control credit wait and, for circuits, the open handshakes).
func (d *Datalink) queuedSince(t0 sim.Time) sim.Time {
	return max(d.k.Engine().Now()-t0-sendSetup, 0)
}

// sent is the accounting every packet-switched send does once its frame is
// on the fiber: counters, the flight-recorder note, and the frame charged
// to its (src, dst, proto) flow. dst is -1 for a multicast.
func (d *Datalink) sent(dst int, payload []byte, queued sim.Time) {
	d.stats.PacketsSent++
	d.stats.BytesSent += int64(len(payload))
	d.fr.Note(obs.FSend, d.frName, int64(dst), int64(len(payload)))
	d.fl.Account(d.board.ID(), dst, wireProto(payload), len(payload), queued)
}

// SendPacket transmits payload to dst using packet switching (§4.2.3):
// test opens with retry enforce hop-by-hop flow control; no reply is
// awaited. payload must fit the input queues; the datalink sends a copy.
func (d *Datalink) SendPacket(th *kernel.Thread, dst int, payload []byte) error {
	hops, err := d.route(dst)
	if err != nil {
		return err
	}
	return d.sendPacketHops(th, dst, hops, payload)
}

// sendPacketHops transmits one packet-switched frame over hops — a unicast
// route, or a multicast tree with dst -1 — from the calling thread.
func (d *Datalink) sendPacketHops(th *kernel.Thread, dst int, hops []topo.Hop, payload []byte) error {
	if len(payload) > MaxPacketPayload {
		return fmt.Errorf("datalink: packet of %d bytes exceeds %d (use circuit switching)",
			len(payload), MaxPacketPayload)
	}
	sp := th.Span().Child(trace.LayerDatalink, d.board.Name(), "dl-send-packet")
	t0 := d.k.Engine().Now()
	d.mu.P(th)
	th.Compute(sendSetup)
	// Our own output's flow control: the attached HUB input queue must be
	// ready for a new packet.
	d.board.WaitNetReady(th.Proc())
	queued := d.queuedSince(t0)
	d.board.ClearNetReady()
	d.sendPacketFrame(hops, d.take(payload), sp)
	d.sent(dst, payload, queued)
	sp.End()
	d.mu.V()
	return nil
}

// TrySendPacketInterrupt transmits a packet from interrupt context — the
// fast path for transport acknowledgments, preserving the paper's "no
// context switching overhead at the datalink-transport interface"
// (§6.2.1). It fails (returning false) when the datalink is busy with a
// thread-level frame or the outgoing flow control is not ready; the caller
// then falls back to a protocol thread. extra is additional interrupt-level
// processing charged with the send. parent is the trace span (nil when
// untraced) the interrupt-level send is attributed to. An accepted payload
// is copied at once, before the interrupt that transmits it runs.
func (d *Datalink) TrySendPacketInterrupt(dst int, payload []byte, extra sim.Time, parent *trace.Span) bool {
	if len(payload) > MaxPacketPayload {
		return false
	}
	hops, err := d.route(dst)
	if err != nil {
		return false
	}
	if !d.board.NetReady() || !d.mu.TryP() {
		return false
	}
	sp := parent.Child(trace.LayerDatalink, d.board.Name(), "dl-intr-send")
	d.board.ClearNetReady()
	d.isend = intrSend{dst: dst, hops: hops, body: d.take(payload), sp: sp}
	d.board.CPU.RunInterrupt(extra+sendSetup, d.intrSendFn)
	return true
}

// intrSendRun transmits the pending interrupt-level send and releases the
// transmit mutex its TrySendPacketInterrupt took.
func (d *Datalink) intrSendRun() {
	s := d.isend
	d.isend = intrSend{}
	d.sendPacketFrame(s.hops, s.body, s.sp)
	// Interrupt-level sends only go out when credit is already there, so
	// their queueing time is zero by construction.
	d.sent(s.dst, s.body, 0)
	s.sp.End()
	d.mu.V()
}

// SendCircuit transmits payload to dst using circuit switching (§4.2.1):
// the route is opened with a reply requested from the last HUB; data flows
// only after the reply arrives; close all tears the circuit down. Payload
// size is unlimited (large packets cut through the input queues). payload
// itself travels, so the caller must not change it.
func (d *Datalink) SendCircuit(th *kernel.Thread, dst int, payload []byte) error {
	hops, err := d.route(dst)
	if err != nil {
		return err
	}
	return d.sendCircuitHops(th, dst, hops, payload, 1)
}

// SendMulticastCircuit opens the multicast tree to all dsts (§4.2.2),
// waits for a reply from every branch, then sends one copy of the data.
func (d *Datalink) SendMulticastCircuit(th *kernel.Thread, dsts []int, payload []byte) error {
	hops, err := d.router.MulticastTree(d.board.ID(), dsts)
	if err != nil {
		return err
	}
	d.stats.McastsSent++
	return d.sendCircuitHops(th, -1, hops, payload, countTerminals(hops))
}

// SendMulticastPacket is the §4.2.4 packet-switched multicast: test opens
// over the tree, then the packet, sent as a copy like SendPacket's.
func (d *Datalink) SendMulticastPacket(th *kernel.Thread, dsts []int, payload []byte) error {
	hops, err := d.router.MulticastTree(d.board.ID(), dsts)
	if err == nil {
		err = d.sendPacketHops(th, -1, hops, payload)
	}
	if err == nil {
		d.stats.McastsSent++
	}
	return err
}

func countTerminals(hops []topo.Hop) int {
	n := 0
	for _, h := range hops {
		if h.Terminal {
			n++
		}
	}
	return n
}

// sendCircuitHops implements circuit establishment with timeout recovery:
// "If CAB3 does not receive a reply soon enough, it... can decide to take
// down all the existing connections by using close all, and attempt to
// re-establish an entire route."
func (d *Datalink) sendCircuitHops(th *kernel.Thread, dst int, hops []topo.Hop, payload []byte, wantReplies int) error {
	sp := th.Span().Child(trace.LayerDatalink, d.board.Name(), "dl-send-circuit")
	t0 := d.k.Engine().Now()
	defer sp.End()
	d.mu.P(th)
	defer d.mu.V()
	for attempt := 0; attempt < openAttempts; attempt++ {
		th.Compute(sendSetup)
		d.board.WaitNetReady(th.Proc())

		pend := d.expect(wantReplies)
		for _, hp := range hops {
			op := hub.OpOpenRetry
			if hp.Terminal {
				op = hub.OpOpenRetryReply
			}
			d.board.Send(d.command(op, hp.HubID, hp.Port, pend.token))
		}

		if !d.await(th, pend, openTimeout) || !pend.ok {
			// Tear down whatever was established and retry.
			d.stats.OpenTimeouts++
			d.fr.Note(obs.FOpenTimeout, d.frName, int64(attempt), int64(pend.want))
			d.board.Send(d.closeAll())
			continue
		}

		// Circuit up: ship the data and close behind it.
		d.board.ClearNetReady()
		d.board.Send(
			&fiber.Item{Kind: fiber.KindPacket, Payload: payload, Span: sp},
			d.closeAll(),
		)
		d.stats.PacketsSent++
		d.stats.BytesSent += int64(len(payload))
		d.fr.Note(obs.FSend, d.frName, -1, int64(len(payload)))
		d.fl.Account(d.board.ID(), dst, wireProto(payload), len(payload), d.queuedSince(t0))
		return nil
	}
	d.stats.OpenFailures++
	return fmt.Errorf("datalink: circuit establishment failed after %d attempts", openAttempts)
}

// receiveItem is the board's raw item hook (hardware receive path).
func (d *Datalink) receiveItem(it *fiber.Item) {
	switch it.Kind {
	case fiber.KindReply:
		d.board.CPU.RunInterrupt(replyInterrupt, func() {
			if pend, ok := d.pending[it.Token]; ok {
				if !it.ReplyOK {
					pend.ok = false
				}
				pend.val = it.ReplyData
				pend.want--
				pend.cond.Broadcast()
			}
		})
	case fiber.KindPacket:
		if it.FrameError {
			// TAXI code violation detected in hardware: discard the
			// damaged packet; the transport's retransmission recovers.
			d.stats.FramingErrors++
			d.board.DrainedPacket()
			it.Consume()
			return
		}
		d.receivePacket(it)
	default:
		// Commands reaching a CAB (close all at end of route, multicast
		// strays addressed to other HUBs) are filtered by hardware.
		if it.FrameError {
			d.stats.FramingErrors++
		} else {
			d.stats.StrayCommands++
		}
		it.Consume()
	}
}

// receivePacket runs the §6.2.1 receive pipeline: start-of-packet
// interrupt, transport upcall, DMA drain, completion delivery. "The
// transport layer upcalls must determine the destination mailbox and return
// to the datalink layer before incoming data overflows the CAB input
// queue."
//
// Each stage hands its packet to the next through a FIFO, and the bound
// stage method takes the oldest entry. That pairs every run with its own
// packet because the stages complete in the order they were entered:
//   - the CPU's interrupt queue is FIFO and never drops a job, so the
//     interrupts run in the order receivePacket submitted them;
//   - the delivery time done = max(arrival end, DMA done, now) never
//     decreases per datalink: items arrive in order on the one input fiber,
//     the fiber-in DMA channel serves transfers in order, and time only
//     moves forward;
//   - events at equal times fire in the order they were scheduled.
func (d *Datalink) receivePacket(it *fiber.Item) {
	rsp := it.Span.Child(trace.LayerDatalink, d.board.Name(), "dl-recv")
	d.rxIntr.Push(rxEntry{it: it, rsp: rsp})
	d.board.CPU.RunInterrupt(recvInterrupt+upcall, d.rxInterruptFn)
}

// rxInterrupt is the start-of-packet interrupt of the oldest packet.
func (d *Datalink) rxInterrupt() {
	e := d.rxIntr.Pop()
	// DMA out of the input queue into CAB memory. The start of packet
	// emerges now; the upstream output register's ready bit is restored.
	d.board.DrainedPacket()
	// The drain completes when the slower of (a) the packet's arrival on
	// the fiber and (b) the DMA channel finishing.
	eng := d.k.Engine()
	dmaDone := d.board.DMA.TransferSpan(cab.ChanFiberIn, len(e.it.Payload), nil, e.it.Span)
	done := max(e.it.End(), dmaDone, eng.Now())
	d.rxDone.Push(e)
	eng.At(done, d.rxUpcallFn)
}

// rxUpcall delivers the oldest drained packet to the transport.
func (d *Datalink) rxUpcall() {
	e := d.rxDone.Pop()
	e.rsp.End()
	n := len(e.it.Payload)
	d.stats.PacketsReceived++
	d.stats.BytesReceived += int64(n)
	d.fr.Note(obs.FRecv, d.frName, 0, int64(n))
	if d.recv != nil {
		d.recv(e.it.Payload, e.it.Span)
	}
	e.it.Consume()
}

// AcquireHubLock acquires hardware lock `lock` on the HUB this CAB attaches
// to, blocking (queued at the HUB controller) until granted. HUB locks are
// the §4.2 synchronization primitive CABs use to build higher-level
// coordination without a message round trip to a lock server.
//
// While a queued lock command waits at the controller, the CAB's input
// port on the HUB is stalled (hardware behavior), so the datalink holds
// its transmit mutex for the duration: other outgoing traffic from this
// CAB waits with it rather than piling into the stalled input queue.
func (d *Datalink) AcquireHubLock(th *kernel.Thread, lock byte) error {
	return d.lockOp(th, hub.OpLockRetry, lock)
}

// TryAcquireHubLock attempts the lock without queuing; it reports false if
// the lock is held.
func (d *Datalink) TryAcquireHubLock(th *kernel.Thread, lock byte) (bool, error) {
	err := d.lockOp(th, hub.OpLock, lock)
	if err == errLockHeld {
		return false, nil
	}
	return err == nil, err
}

// ReleaseHubLock releases the lock (fire-and-forget, as on the hardware).
func (d *Datalink) ReleaseHubLock(th *kernel.Thread, lock byte) {
	d.mu.P(th)
	defer d.mu.V()
	d.board.Send(d.command(hub.OpUnlock, d.localHubID(), lock, 0))
}

// errLockHeld distinguishes a contended try-lock from a transport failure.
var errLockHeld = fmt.Errorf("datalink: hub lock held")

// lockOp sends a lock command to the local HUB and waits for its reply.
func (d *Datalink) lockOp(th *kernel.Thread, op hub.Opcode, lock byte) error {
	d.mu.P(th)
	defer d.mu.V()
	th.Compute(sendSetup)
	pend := d.expect(1)
	d.board.Send(d.command(op, d.localHubID(), lock, pend.token))

	// Lock grants can legitimately take arbitrarily long (the holder
	// decides); only the no-retry variant observes the reply timeout.
	timeout := sim.Time(-1)
	if op == hub.OpLock {
		timeout = openTimeout
	}
	if !d.await(th, pend, timeout) {
		return fmt.Errorf("datalink: lock reply lost")
	}
	if !pend.ok {
		return errLockHeld
	}
	return nil
}
