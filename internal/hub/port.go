package hub

import (
	"fmt"

	"repro/internal/fiber"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Port is one HUB I/O port: an input queue plus an output register
// (paper Figure 5), connected to a pair of fiber lines.
//
// The input side consumes the arriving item stream in order: commands
// addressed to this HUB are executed (localized commands in the port,
// serialized commands at the central controller); everything else is
// forwarded through the crossbar over the input's current connections.
// The output side is the output register: it is owned by at most one input
// at a time and carries the ready bit used for packet-switched flow control.
type Port struct {
	hub  *Hub
	id   int
	name string

	enabled  bool
	loopback bool

	// Input side.
	inq sim.FIFO[*fiber.Item]
	// inBytes counts queued PACKET bytes. Commands (3 bytes each) are
	// consumed at line rate by the port hardware and never accumulate,
	// so only packets count against the 1 KB queue.
	inBytes int
	running bool // a processing chain is active
	stalled bool // head command parked at the controller (retry)
	conn    []*Port
	// upstreamReady returns a drained (paper §4.2.3) or discarded packet's
	// credit to the upstream output register (wired to the incoming link).
	upstreamReady func()
	// stepFn is p.step and advanceFn p.advance, bound once so scheduling
	// them allocates nothing.
	stepFn    func()
	advanceFn func()

	// Output side.
	out       *fiber.Link
	owner     *Port
	connReady sim.Time
	ready     bool
	waiters   sim.FIFO[pendingCmd]
	// serveFn retries the opens parked on this output; bound once.
	serveFn func()
	// stuck models a failed output register (paper §4: recovery from
	// hardware failures): items reaching it are lost instead of leaving on
	// the fiber. The fault is visible through the status table (the owner
	// column never clears naturally) and through the drop counters.
	stuck bool
	// failed is the status table's "link down" mark, set by the routing
	// layer when this output's link is failed. Test-opens consult the
	// status and fail immediately instead of parking on the ready bit —
	// parking would stall the input queue forever behind a dead link.
	// Plain opens ignore it, so liveness probes still pass.
	failed bool

	// occ is the input queue's time-weighted occupancy gauge (nil unless
	// a metrics registry is attached; nil gauges record nothing).
	occ *trace.Gauge
	// peakBytes is the input queue's high-water mark over the run — the
	// congestion weathermap's heat reading, maintained unconditionally
	// (one compare per enqueue).
	peakBytes int
	// congested latches once inBytes crosses CongestionHighWater and
	// re-arms below half of it, so the flight recorder notes congestion
	// onset once per episode instead of once per packet.
	congested bool

	// Counters (readable via status/supervisor commands).
	pktIn, pktOut     int64
	bytesIn, bytesOut int64
	cmds              int64
	drops             int64
	frameErrs         int64
}

func newPort(h *Hub, id int) *Port {
	p := &Port{
		hub:     h,
		id:      id,
		name:    fmt.Sprintf("%s.p%d", h.name, id),
		enabled: true,
		ready:   true,
	}
	p.stepFn = p.step
	p.advanceFn = p.advance
	p.serveFn = func() { h.serveWaiters(p) }
	return p
}

// ID returns the port number within its HUB.
func (p *Port) ID() int { return p.id }

// EndpointName implements fiber.Endpoint.
func (p *Port) EndpointName() string { return p.name }

// SetUpstreamReady registers the callback that returns a packet's credit to
// the upstream output register when this input drains or discards it.
func (p *Port) SetUpstreamReady(fn func()) { p.upstreamReady = fn }

// Ready returns the output register's ready bit.
func (p *Port) Ready() bool { return p.ready }

// Enabled reports whether the port is enabled.
func (p *Port) Enabled() bool { return p.enabled }

// QueueBytes returns the current input queue occupancy.
func (p *Port) QueueBytes() int { return p.inBytes }

// PeakQueueBytes returns the input queue's high-water mark over the run.
func (p *Port) PeakQueueBytes() int { return p.peakBytes }

// Congested reports whether the input queue is in a congestion episode
// (crossed CongestionHighWater and has not yet drained below half of it).
func (p *Port) Congested() bool { return p.congested }

// Connected reports whether this port's output register is owned by an
// input (a crossbar connection is established through it) — the sampler's
// utilization read-out.
func (p *Port) Connected() bool { return p.owner != nil }

// PacketsForwarded returns packets that left through this output register.
func (p *Port) PacketsForwarded() int64 { return p.pktOut }

// PacketsReceived returns packets that entered this input queue.
func (p *Port) PacketsReceived() int64 { return p.pktIn }

// Drops returns items discarded at this input.
func (p *Port) Drops() int64 { return p.drops }

// SetStuck injects (true) or clears (false) a stuck-output-register fault:
// while stuck, items reaching this output register are lost before they
// take its credit. Clearing the fault leaves connections as they were;
// Hub.ResetOutput frees them.
func (p *Port) SetStuck(stuck bool) { p.stuck = stuck }

// Stuck reports whether the output register fault is active.
func (p *Port) Stuck() bool { return p.stuck }

// SetFailed marks (true) or clears (false) this output's link-down status:
// while failed, test-opens fail immediately instead of parking.
func (p *Port) SetFailed(failed bool) { p.failed = failed }

// Failed reports whether the output is marked link-down.
func (p *Port) Failed() bool { return p.failed }

// SetReady sets the output register's ready bit (the downstream input
// queue signaled that the start of packet emerged) and retries any parked
// test-opens.
func (p *Port) SetReady() {
	p.ready = true
	if p.waiters.Len() > 0 {
		p.hub.serveWaiters(p)
	}
}

// Receive implements fiber.Endpoint: an item's first byte has arrived at
// this input.
func (p *Port) Receive(it *fiber.Item) {
	if !p.enabled {
		p.drop(it, dropDisabled)
		return
	}
	if p.loopback {
		// Supervisor loopback: reflect straight out our own output.
		p.sendOut(it.Clone(), p.hub.eng.Now()+TransferLatency)
		p.returnCredit(it)
		return
	}
	if it.Kind == fiber.KindPacket {
		// Cut-through: an empty, unstalled input with an established
		// connection streams the packet without occupying the queue,
		// which is how circuit switching carries packets larger than
		// the 1 KB input queue (paper §4.2.3).
		cutThrough := p.inq.Len() == 0 && !p.stalled && len(p.conn) > 0
		if !cutThrough && p.inBytes+it.Bytes() > InputQueueBytes {
			p.drop(it, dropOverflow)
			return
		}
	}
	p.inq.Push(it)
	if it.Kind == fiber.KindPacket {
		p.inBytes += it.Bytes()
		p.occ.Set(int64(p.inBytes))
		if p.inBytes > p.peakBytes {
			p.peakBytes = p.inBytes
		}
		if !p.congested && p.inBytes >= CongestionHighWater {
			p.congested = true
			p.hub.fr.Note(obs.FCongestion, p.name, int64(p.id), int64(p.inBytes))
		}
	}
	p.kick()
}

// drop discards an item, keeping the flow-control protocol consistent: a
// dropped packet will never emerge from this queue, so its credit goes back
// upstream here.
func (p *Port) drop(it *fiber.Item, why int) {
	p.drops++
	p.hub.board.Note(obs.FPacketDrop, p.name, itemWord(it), int64(why))
	p.hub.fr.Note(obs.FDrop, p.name, int64(p.id), int64(it.Bytes()))
	p.returnCredit(it)
}

// flushInput discards every queued item (see drop).
func (p *Port) flushInput(why int) {
	for p.inq.Len() > 0 {
		p.drop(p.pop(), why)
	}
}

// returnCredit gives a packet's ready credit back to the upstream output
// register; commands and replies carry none.
func (p *Port) returnCredit(it *fiber.Item) {
	if it.Kind == fiber.KindPacket && p.upstreamReady != nil {
		p.upstreamReady()
	}
}

// kick starts the input processing chain if it is idle.
func (p *Port) kick() {
	if p.running || p.stalled || p.inq.Len() == 0 {
		return
	}
	p.running = true
	p.step()
}

// advance resumes a port stalled on a controller grant.
func (p *Port) advance() {
	p.stalled = false
	p.kick()
}

// step examines the head item and schedules its handling at the time the
// hardware could act on it (all command bytes present; packet SOP arrived).
func (p *Port) step() {
	if p.stalled {
		p.running = false
		return
	}
	if p.inq.Len() == 0 {
		p.running = false
		return
	}
	it := p.inq.Peek()
	now := p.hub.eng.Now()
	if it.Kind == fiber.KindCommand && Opcode(it.Cmd.Op) != OpCloseAll &&
		Opcode(it.Cmd.Op) != OpCloseAllReply && it.Cmd.Hub == p.hub.id {
		if ready := it.End(); now < ready {
			p.hub.eng.At(ready, p.stepFn)
			return
		}
		p.execHead(it)
		return
	}
	// Forwarded item (packet, close-all, or command for another HUB).
	if now < it.Start {
		p.hub.eng.At(it.Start, p.stepFn)
		return
	}
	p.forwardHead(it)
}

// pop removes the head item.
func (p *Port) pop() *fiber.Item {
	it := p.inq.Pop()
	if it.Kind == fiber.KindPacket {
		p.inBytes -= it.Bytes()
		p.occ.Set(int64(p.inBytes))
		if p.congested && p.inBytes < CongestionHighWater/2 {
			p.congested = false
		}
	}
	return it
}

// execHead executes a command addressed to this HUB.
func (p *Port) execHead(it *fiber.Item) {
	p.pop()
	p.cmds++
	op := Opcode(it.Cmd.Op)
	if it.FrameError {
		// A damaged command is not recognized by the hardware: this is
		// the "lost HUB command" case the datalink must recover from.
		p.frameErrs++
		p.hub.board.Note(obs.FFrameError, p.name, cmdWord(it.Cmd), 0)
		p.step()
		return
	}
	p.hub.board.Note(obs.FCommand, p.name, cmdWord(it.Cmd), 0)
	if op.IsComb() {
		// Combining commands execute at the controller's combining engine
		// but never park the input: the engine either merges the operand
		// or declines, and the verdict arrives over the reverse channel.
		p.hub.execComb(it)
		p.hub.eng.After(CycleTime, p.stepFn)
		return
	}
	if op.serialized() {
		if !p.hub.execSerialized(p, it) {
			// Parked at the controller: stall this input until granted.
			p.stalled = true
			p.running = false
			return
		}
		// Completed synchronously; continue after one controller cycle.
		p.hub.eng.After(CycleTime, p.stepFn)
		return
	}
	p.execLocalized(it, op)
	p.hub.eng.After(LocalizedLatency, p.stepFn)
}

// execLocalized runs a localized (in-port) command.
func (p *Port) execLocalized(it *fiber.Item, op Opcode) {
	h := p.hub
	param := int(it.Cmd.Param)
	portParam := func() *Port {
		if param < len(h.ports) {
			return h.ports[param]
		}
		return nil
	}
	switch op {
	case OpClose, OpCloseReply:
		if out := portParam(); out != nil {
			h.closeConn(p, out)
		}
		if op == OpCloseReply {
			h.reply(it, true, uint64(param))
		}
	case OpCloseOutput, OpCloseOutputReply:
		if out := portParam(); out != nil && out.owner != nil {
			h.closeConn(out.owner, out)
		}
		if op == OpCloseOutputReply {
			h.reply(it, true, uint64(param))
		}
	case OpStatusOutput:
		if out := portParam(); out != nil && out.owner != nil {
			h.reply(it, true, uint64(out.owner.id))
		} else {
			h.reply(it, false, 0xFF)
		}
	case OpStatusInput:
		if in := portParam(); in != nil && len(in.conn) > 0 {
			h.reply(it, true, uint64(in.conn[0].id))
		} else {
			h.reply(it, false, 0xFF)
		}
	case OpStatusReady:
		if out := portParam(); out != nil {
			h.reply(it, out.ready, 0)
		} else {
			h.reply(it, false, 0xFF)
		}
	case OpStatusQueue:
		if q := portParam(); q != nil {
			h.reply(it, true, uint64(q.inBytes/8))
		} else {
			h.reply(it, false, 0xFF)
		}
	case OpStatusConnCnt:
		n := uint64(0)
		for _, out := range h.ports {
			if out.owner != nil {
				n++
			}
		}
		h.reply(it, true, n)
	case OpStatusCounters:
		if q := portParam(); q != nil {
			h.reply(it, true, uint64(q.pktOut))
		} else {
			h.reply(it, false, 0xFF)
		}
	case OpIdent:
		h.reply(it, true, uint64(h.id))
	case OpPing, OpEcho:
		h.reply(it, true, uint64(it.Cmd.Param))
	case OpReadySet:
		if out := portParam(); out != nil {
			out.SetReady()
		}
	case OpReadyClear:
		if out := portParam(); out != nil {
			out.ready = false
		}
	case OpMark:
		// The mark is at the head of the queue, i.e. it has drained.
		h.reply(it, true, uint64(it.Cmd.Param))
	case OpFlush:
		p.flushInput(dropFlushed)
	case OpAbort:
		for len(p.conn) > 0 {
			h.closeConn(p, p.conn[0])
		}
	case OpNop:
	case OpNopReply:
		h.reply(it, true, 0)
	default:
		if op.IsSupervisor() {
			p.execSupervisor(it, op)
			return
		}
		h.reply(it, false, 0xFE) // unknown command
	}
}

// execSupervisor runs a supervisor command (paper §4.2: "for system testing
// and reconfiguration purposes").
func (p *Port) execSupervisor(it *fiber.Item, op Opcode) {
	h := p.hub
	param := int(it.Cmd.Param)
	portParam := func() *Port {
		if param < len(h.ports) {
			return h.ports[param]
		}
		return nil
	}
	switch op {
	case SupReset:
		for _, out := range h.ports {
			if out.owner != nil {
				h.closeConn(out.owner, out)
			}
		}
		for i := range h.locks {
			h.locks[i] = lockState{}
		}
		h.frozen = false
	case SupResetPort:
		if q := portParam(); q != nil {
			if q.owner != nil {
				h.closeConn(q.owner, q)
			}
			h.resetInput(q)
		}
	case SupEnablePort:
		if q := portParam(); q != nil {
			q.enabled = true
			// Opens that parked while the port was disabled can now be
			// granted.
			if q.waiters.Len() > 0 {
				h.serveWaiters(q)
			}
		}
	case SupDisablePort:
		if q := portParam(); q != nil {
			q.enabled = false
		}
	case SupLoopbackOn:
		if q := portParam(); q != nil {
			q.loopback = true
		}
	case SupLoopbackOff:
		if q := portParam(); q != nil {
			q.loopback = false
		}
	case SupSetHubID:
		h.id = byte(param)
	case SupReadConfig:
		h.reply(it, true, uint64(len(h.ports)))
	case SupClearCounters:
		for _, q := range h.ports {
			q.pktIn, q.pktOut, q.bytesIn, q.bytesOut, q.cmds, q.drops, q.frameErrs = 0, 0, 0, 0, 0, 0, 0
			q.peakBytes = 0
		}
	case SupReadCounters:
		var total int64
		for _, q := range h.ports {
			total += q.pktOut
		}
		h.reply(it, true, uint64(total))
	case SupTestPattern:
		if out := portParam(); out != nil && out.out != nil {
			pkt := &fiber.Item{Kind: fiber.KindPacket, Payload: []byte{0xA5, 0x5A, 0xA5, 0x5A}}
			out.sendOut(pkt, h.eng.Now()+TransferLatency)
		}
	case SupFreeze:
		h.frozen = true
	case SupThaw:
		h.frozen = false
		for _, out := range h.ports {
			if out.waiters.Len() > 0 {
				h.serveWaiters(out)
			}
		}
	case SupSelfTest:
		h.reply(it, h.CheckInvariants() == nil, 0)
	}
}

// forwardHead forwards the head item over the input's connections.
func (p *Port) forwardHead(it *fiber.Item) {
	p.pop()
	now := p.hub.eng.Now()
	isPacket := it.Kind == fiber.KindPacket
	if isPacket {
		p.pktIn++
		p.bytesIn += int64(it.Bytes())
	}
	op := Opcode(it.Cmd.Op)
	isCloseAll := it.Kind == fiber.KindCommand && (op == OpCloseAll || op == OpCloseAllReply)

	if len(p.conn) == 0 {
		if isCloseAll {
			// End of route: nothing left to close. Reply if asked.
			if op == OpCloseAllReply {
				p.hub.reply(it, true, 0)
			}
		} else {
			p.drop(it, dropNoConn)
		}
		p.step()
		return
	}

	// closeConn below edits p.conn, so fan out over a copy (on the stack
	// for the usual unicast or small multicast connection).
	var outBuf [4]*Port
	outs := append(outBuf[:0], p.conn...)
	// The input queue streams the item once; the crossbar fans it out to
	// every connected output register simultaneously. A byte enters the
	// crossbar only when the newest of the connections is set up and
	// emerges from the output registers TransferLatency later.
	start := now
	for _, out := range outs {
		if start < out.connReady {
			start = out.connReady
		}
	}
	if isPacket && it.Span != nil {
		// Per-hop HUB span: first-byte arrival at this input to start of
		// packet leaving the output register(s) — queueing plus transit.
		it.Span.ChildAt(it.Start, trace.LayerHub, p.name, "xbar").
			EndAt(start + TransferLatency)
	}
	// Each copy's timing fields change as it moves on, so every output
	// but the last gets a clone and the last takes the item itself —
	// unless a close-all reply below still reads the item's hop count.
	replyAfter := isCloseAll && op == OpCloseAllReply
	for i, out := range outs {
		c := it
		if i < len(outs)-1 || replyAfter {
			c = it.Clone()
		}
		c.Hops++
		out.sendOut(c, start+TransferLatency)
	}
	// The start of packet has emerged from this input queue: tell the
	// upstream output register (paper §4.2.3).
	p.returnCredit(it)
	if isCloseAll {
		// close all "is recognized at the output register of each HUB in
		// the route. After detecting the close all, the HUB closes the
		// connection leading to the output register" (§4.2.1).
		for _, out := range outs {
			p.hub.closeConn(p, out)
		}
		if replyAfter {
			p.hub.reply(it, true, 0)
		}
	}
	p.step()
}

// sendOut transmits an item through this port's output register onto its
// outgoing fiber.
func (p *Port) sendOut(it *fiber.Item, earliest sim.Time) {
	if p.stuck {
		p.drops++
		p.hub.board.Note(obs.FPacketDrop, p.name, itemWord(it), dropStuck)
		return
	}
	if p.out == nil {
		p.drops++
		return
	}
	if it.Kind == fiber.KindPacket {
		// The start of packet passes the output register: clear the
		// ready bit until the link returns the packet's credit.
		p.ready = false
		p.pktOut++
		p.bytesOut += int64(it.Bytes())
		p.hub.board.Note(obs.FPacketOut, p.name, int64(len(it.Payload)), 0)
	}
	p.out.Send(it, earliest)
}
