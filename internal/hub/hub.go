package hub

import (
	"fmt"

	"repro/internal/fiber"
	"repro/internal/hub/comb"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Timing constants from paper §4: "the latency to set up a connection and
// transfer the first byte of a packet through a single HUB is ten cycles
// (700 nanoseconds). Once a connection has been established, the latency to
// transfer a byte is five cycles (350 nanoseconds)... the HUB central
// controller can set up a new connection through the crossbar switch every
// 70 nanosecond cycle."
const (
	// CycleTime is the HUB clock cycle.
	CycleTime = 70 * sim.Nanosecond
	// SetupLatency is the controller + crossbar setup portion of a
	// connection open (5 cycles); together with TransferLatency it gives
	// the 10-cycle figure for "set up and transfer the first byte".
	SetupLatency = 5 * CycleTime
	// TransferLatency is the input-queue-to-output-register transit time
	// of a byte once a connection exists (5 cycles).
	TransferLatency = 5 * CycleTime
	// LocalizedLatency is the execution time of a localized command
	// ("these commands can be executed in one cycle").
	LocalizedLatency = CycleTime
	// ReplyHopDelay approximates the reverse-channel cost per HUB: the
	// reply steals cycles from the opposite-direction resources
	// (§4.2.1), so it is bounded: 3 command bytes plus one transit.
	ReplyHopDelay = 3*fiber.ByteTime + TransferLatency + fiber.DefaultPropagation

	// InputQueueBytes is the input queue size, which bounds the maximum
	// packet for packet switching (paper §4.2.3: 1 kilobyte).
	InputQueueBytes = 1024

	// CongestionHighWater is the input-queue occupancy at which a port
	// notes congestion onset into the flight recorder (3/4 of the queue);
	// the episode re-arms once the queue drains below half the mark.
	CongestionHighWater = InputQueueBytes * 3 / 4

	// DefaultPorts is the prototype HUB's port count (16 x 16 crossbar).
	DefaultPorts = 16

	// NumLocks is the number of hardware locks per HUB.
	NumLocks = 16
)

// Hub is one crossbar switch. Create with New, then wire each port's output
// link with ConnectOutput before running traffic.
type Hub struct {
	eng   *sim.Engine
	id    byte
	name  string
	ports []*Port

	// ctrlFree is when the central controller can accept the next
	// serialized command (one per cycle).
	ctrlFree sim.Time
	// frozen stops the controller granting opens (SupFreeze).
	frozen bool

	// fr is the system's flight recorder and board the instrumentation
	// board (board.go); either is nil when off, and a nil recorder's Note
	// is a no-op.
	fr, board *obs.FlightRecorder

	// comb is the in-network combining engine (nil unless armed via
	// EnableCombining; a dark HUB declines combining commands).
	comb *comb.Engine

	locks [NumLocks]lockState
}

type lockState struct {
	held    bool
	holder  int // port id through which the lock was acquired
	waiters sim.FIFO[pendingCmd]
}

// New creates a HUB with nports ports whose crossbar events go to the
// instrumentation board (nil: none).
func New(eng *sim.Engine, id byte, nports int, board *obs.FlightRecorder) *Hub {
	h := &Hub{
		eng:   eng,
		id:    id,
		name:  fmt.Sprintf("hub%d", id),
		board: board,
	}
	h.ports = make([]*Port, nports)
	for i := range h.ports {
		h.ports[i] = newPort(h, i)
	}
	return h
}

// ID returns the HUB's datalink ID.
func (h *Hub) ID() byte { return h.id }

// Name returns the HUB's display name.
func (h *Hub) Name() string { return h.name }

// NumPorts returns the number of I/O ports.
func (h *Hub) NumPorts() int { return len(h.ports) }

// Port returns port i.
func (h *Hub) Port(i int) *Port { return h.ports[i] }

// Instrument is the HUB's one instrumentation seam: it arms the ports'
// flight-recorder drop and congestion notes on fr, registers their metrics
// on reg (a time-weighted input-queue occupancy gauge plus packet/drop
// read-outs), and hands both to the combining engine. Either may be nil; a
// nil registry leaves the gauges nil. Call EnableCombining first.
func (h *Hub) Instrument(reg *trace.Registry, fr *obs.FlightRecorder) {
	h.fr = fr
	if h.comb != nil {
		h.comb.Instrument(reg, fr)
	}
	if reg == nil {
		return
	}
	for _, p := range h.ports {
		p := p
		p.occ = reg.Gauge(p.name + ".queue_bytes")
		reg.Func(p.name+".pkts_in", func() float64 { return float64(p.pktIn) })
		reg.Func(p.name+".pkts_out", func() float64 { return float64(p.pktOut) })
		reg.Func(p.name+".drops", func() float64 { return float64(p.drops) })
		reg.Func(p.name+".frame_errs", func() float64 { return float64(p.frameErrs) })
	}
}

// ConnectOutput attaches the outgoing fiber of port i. The link's far end
// is a CAB or another HUB's input.
func (h *Hub) ConnectOutput(i int, link *fiber.Link) { h.ports[i].out = link }

// Connections returns the current crossbar status table as a map from
// output port to the input port feeding it.
func (h *Hub) Connections() map[int]int {
	m := make(map[int]int)
	for _, p := range h.ports {
		if p.owner != nil {
			m[p.id] = p.owner.id
		}
	}
	return m
}

// CheckInvariants verifies crossbar consistency: every owned output is
// listed in its owner's connection set and vice versa, and each output has
// at most one owner (structural). It returns an error describing the first
// violation.
func (h *Hub) CheckInvariants() error {
	for _, out := range h.ports {
		if out.owner != nil {
			found := false
			for _, o := range out.owner.conn {
				if o == out {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("%s: output p%d owned by p%d but not in its conn set", h.name, out.id, out.owner.id)
			}
		}
	}
	for _, in := range h.ports {
		for _, out := range in.conn {
			if out.owner != in {
				return fmt.Errorf("%s: input p%d lists output p%d but owner is %v", h.name, in.id, out.id, out.owner)
			}
		}
	}
	return nil
}

// controllerSlot allocates the next controller cycle at or after t and
// returns when the command's crossbar action completes.
func (h *Hub) controllerSlot(t sim.Time) sim.Time {
	grant := t
	if grant < h.ctrlFree {
		grant = h.ctrlFree
	}
	h.ctrlFree = grant + CycleTime
	return grant + SetupLatency
}

// reply sends a command reply back to the originating endpoint over the
// (never-blocked) reverse channel. A combining command's verdict carries its
// 8-byte result (ReplyData); every other reply carries the low byte of val
// (ReplyVal).
func (h *Hub) reply(orig *fiber.Item, ok bool, val uint64) {
	if orig.ReplyTo == nil {
		return
	}
	rep := &fiber.Item{
		Kind:    fiber.KindReply,
		Cmd:     orig.Cmd,
		ReplyOK: ok,
		Token:   orig.Token,
	}
	if Opcode(orig.Cmd.Op).IsComb() {
		rep.ReplyData = val
	} else {
		rep.ReplyVal = byte(val)
		val = uint64(rep.ReplyVal)
	}
	h.board.Note(obs.FReply, h.name, cmdWord(orig.Cmd)|bit(ok, 24), int64(val))
	delay := sim.Time(orig.Hops+1) * ReplyHopDelay
	dst := orig.ReplyTo
	h.eng.After(delay, func() { dst.Receive(rep) })
}

// pendingCmd is a serialized command waiting at the controller for its
// target (output register or lock) to become available. Queues hold it by
// value.
type pendingCmd struct {
	item *fiber.Item
	in   *Port // input port the command arrived on
}

// execSerialized runs a controller command (opens and locks) for input
// port in. It returns true when the command is complete and the input may
// advance; false when the command is parked (retry) and the input stalls.
func (h *Hub) execSerialized(in *Port, it *fiber.Item) bool {
	op := Opcode(it.Cmd.Op)
	if op.isOpen() {
		return h.execOpen(in, it)
	}
	return h.execLock(in, it)
}

// execOpen attempts to establish input->output. Completion (including the
// crossbar setup pipeline) is charged via controllerSlot.
func (h *Hub) execOpen(in *Port, it *fiber.Item) bool {
	op := Opcode(it.Cmd.Op)
	outID := int(it.Cmd.Param)
	if outID >= len(h.ports) {
		h.reply(it, false, 0xFF)
		return true
	}
	out := h.ports[outID]
	if op.wantsReady() && out.failed {
		// The status table marks this output's link down: a test-open
		// consults the status and fails at once — parking would stall
		// the input queue forever behind a dead link.
		h.board.Note(obs.FConnRetry, h.name, portPair(in.id, outID), int64(op)|retryFailed<<8)
		if op.replies() {
			h.reply(it, false, 0xFF)
		}
		return true
	}
	if !h.openable(in, out, op) {
		h.board.Note(obs.FConnRetry, h.name, portPair(in.id, outID), int64(op)|retryBusy<<8)
		if op.retries() {
			out.waiters.Push(pendingCmd{item: it, in: in})
			return false // input stalls behind the pending open
		}
		h.reply(it, false, 0xFF)
		return true
	}
	h.grant(in, out, it, false)
	return true
}

// openable reports whether the controller can connect in->out now: the
// output is enabled, free (or already in's — multicast re-opens), the
// controller is not frozen, and a test-open finds the ready bit set.
func (h *Hub) openable(in, out *Port, op Opcode) bool {
	return out.enabled && !h.frozen && (out.owner == nil || out.owner == in) &&
		(!op.wantsReady() || out.ready)
}

// grant establishes in->out for open command it at the controller's next
// slot and returns when crossbar setup completes: the connection is usable,
// and the reply (if the opcode asks for one) generated, at that point.
// retried marks an open that was parked first.
func (h *Hub) grant(in, out *Port, it *fiber.Item, retried bool) sim.Time {
	done := h.controllerSlot(h.eng.Now())
	if out.owner != in {
		out.owner = in
		in.conn = append(in.conn, out)
	}
	out.connReady = done
	h.board.Note(obs.FConnOpen, h.name, portPair(in.id, out.id)|bit(retried, 32), int64(done))
	if Opcode(it.Cmd.Op).replies() {
		h.eng.At(done, func() { h.reply(it, true, uint64(out.id)) })
	}
	return done
}

// execLock runs the lock command family at the controller.
func (h *Hub) execLock(in *Port, it *fiber.Item) bool {
	op := Opcode(it.Cmd.Op)
	id := int(it.Cmd.Param) % NumLocks
	lk := &h.locks[id]
	switch op {
	case OpLock, OpLockRetry:
		if !lk.held {
			lk.held = true
			lk.holder = in.id
			h.board.Note(obs.FLock, h.name, int64(id), int64(in.id))
			h.reply(it, true, uint64(id))
			return true
		}
		if op == OpLockRetry {
			lk.waiters.Push(pendingCmd{item: it, in: in})
			return false
		}
		h.reply(it, false, uint64(lk.holder))
	case OpUnlock, OpUnlockReply:
		h.unlock(id)
		if op == OpUnlockReply {
			h.reply(it, true, uint64(id))
		}
	case OpUnlockAll:
		for i := range h.locks {
			if h.locks[i].held && h.locks[i].holder == in.id {
				h.unlock(i)
			}
		}
	case OpTestLock:
		h.reply(it, lk.held, uint64(lk.holder))
	case OpLockHolder:
		if lk.held {
			h.reply(it, true, uint64(lk.holder))
		} else {
			h.reply(it, false, 0xFF)
		}
	case OpLockCount:
		n := uint64(0)
		for i := range h.locks {
			if h.locks[i].held {
				n++
			}
		}
		h.reply(it, true, n)
	}
	return true
}

// unlock releases a lock and grants it to the next queued waiter, resuming
// that waiter's input port.
func (h *Hub) unlock(id int) {
	lk := &h.locks[id]
	if !lk.held {
		return
	}
	lk.held = false
	h.board.Note(obs.FUnlock, h.name, int64(id), 0)
	if lk.waiters.Len() > 0 {
		w := lk.waiters.Pop()
		lk.held = true
		lk.holder = w.in.id
		h.board.Note(obs.FLock, h.name, int64(id)|1<<8, int64(w.in.id))
		h.reply(w.item, true, uint64(id))
		// The waiter's input port was stalled on this command; resume it
		// one controller cycle later.
		h.eng.After(CycleTime, w.in.advanceFn)
	}
}

// serveWaiters retries opens parked on output out, in FIFO order, after the
// output frees or its ready bit sets. Each granted open resumes its input.
func (h *Hub) serveWaiters(out *Port) {
	for out.waiters.Len() > 0 {
		w := out.waiters.Peek()
		op := Opcode(w.item.Cmd.Op)
		if op.wantsReady() && out.failed {
			// The link went down while this test-open was parked: fail
			// it and free its input (see execOpen).
			out.waiters.Pop()
			if op.replies() {
				h.reply(w.item, false, 0xFF)
			}
			h.eng.After(CycleTime, w.in.advanceFn)
			continue
		}
		if !h.openable(w.in, out, op) {
			return
		}
		out.waiters.Pop()
		h.eng.At(h.grant(w.in, out, w.item, true), w.in.advanceFn)
		// A granted open with multicast semantics leaves the output
		// owned; further waiters for this output stay parked.
	}
}

// ResetOutput force-clears output register i after a failure on the link it
// feeds: the owning connection (if any) is closed, every open parked on the
// output is abandoned (no-retry failure replies where the opcode asks for
// one) and its input resumed, and the ready bit is set as given. Recovery
// code calls this when a link is declared dead (ready=false: nothing should
// wait for the dead register again) and when it is restored (ready=true).
// Credit needs no repair here: a packet lost on a dark fiber returns its
// credit as it is sent (fiber.Link.ReturnCredit).
func (h *Hub) ResetOutput(i int, ready bool) {
	out := h.ports[i]
	waiters := out.waiters
	out.waiters = sim.FIFO[pendingCmd]{}
	if out.owner != nil {
		h.closeConn(out.owner, out)
	}
	out.ready = ready
	for waiters.Len() > 0 {
		w := waiters.Pop()
		if Opcode(w.item.Cmd.Op).replies() {
			h.reply(w.item, false, 0xFF)
		}
		h.board.Note(obs.FConnRetry, h.name, portPair(w.in.id, i), retryAbandoned<<8)
		h.eng.After(CycleTime, w.in.advanceFn)
	}
}

// ResetPort is the programmatic equivalent of the SupResetPort supervisor
// command plus an output reset: it clears port i's input queue and
// connections in both directions and restores the ready bit, un-wedging
// traffic stalled on a CAB that crashed while its packet sat in the queue.
func (h *Hub) ResetPort(i int) {
	h.ResetOutput(i, false)
	h.resetInput(h.ports[i])
}

// resetInput closes q's outgoing connections, discards its input queue and
// restores its ready bit, which also retries opens that parked while the
// port was wedged.
func (h *Hub) resetInput(q *Port) {
	for len(q.conn) > 0 {
		h.closeConn(q, q.conn[0])
	}
	q.flushInput(dropReset)
	q.stalled = false
	q.SetReady()
}

// closeConn removes the connection in->out and retries parked opens.
func (h *Hub) closeConn(in *Port, out *Port) {
	if out.owner != in {
		return
	}
	out.owner = nil
	for i, o := range in.conn {
		if o == out {
			in.conn = append(in.conn[:i], in.conn[i+1:]...)
			break
		}
	}
	h.board.Note(obs.FConnClose, h.name, portPair(in.id, out.id), 0)
	// Serve parked opens after one cycle.
	if out.waiters.Len() > 0 {
		h.eng.After(CycleTime, out.serveFn)
	}
}
