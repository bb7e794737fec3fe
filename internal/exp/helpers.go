package exp

import (
	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/hub"
	"repro/internal/kernel"
	"repro/internal/lan"
	"repro/internal/node"
	"repro/internal/sim"
)

// oneShot times one message between two CABs: when the sender thread
// began the send and when the receiver thread had the message. Both are
// valid after the run.
type oneShot struct{ sent, recvd sim.Time }

func (o *oneShot) latency() sim.Time { return o.recvd - o.sent }

// mbps is total bytes moved in d as Mb/s (0 when d is not positive).
func mbps(total int, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(total) * 8 / d.Seconds() / 1e6
}

// startTransfer spawns a receiver thread on CAB dst that takes one message
// from mailbox box, and a sender thread on CAB src that sends it size bytes
// — as a byte stream, or as one datagram.
func startTransfer(sys *core.System, src, dst int, box uint16, size int, stream bool) *oneShot {
	o := &oneShot{}
	rx := sys.CAB(dst)
	mb := rx.Kernel.NewMailbox("in", 4<<20)
	rx.TP.Register(box, mb)
	rx.Kernel.Spawn("rx", func(th *kernel.Thread) {
		msg := mb.Get(th)
		o.recvd = th.Proc().Now()
		mb.Release(msg)
	})
	tx := sys.CAB(src)
	tx.Kernel.Spawn("tx", func(th *kernel.Thread) {
		o.sent = th.Proc().Now()
		if stream {
			tx.TP.StreamSend(th, dst, box, 0, make([]byte, size))
		} else {
			tx.TP.SendDatagram(th, dst, box, 0, make([]byte, size))
		}
	})
	return o
}

// transferOn runs one transfer to completion on an otherwise idle system.
func transferOn(sys *core.System, src, dst, size int, stream bool) sim.Time {
	o := startTransfer(sys, src, dst, 1, size, stream)
	sys.Run()
	return o.latency()
}

// cabLatencyOneWay measures the one-way process-to-process latency of a
// single datagram of size bytes between threads on two CABs of one HUB.
func cabLatencyOneWay(size int, params core.Params) sim.Time {
	return transferOn(core.New(core.SingleHub(2), core.WithParams(params)), 0, 1, size, false)
}

// streamThroughput measures one-way byte-stream throughput (Mb/s) for a
// bulk transfer of total bytes between two CABs.
func streamThroughput(total int, params core.Params) float64 {
	return mbps(total, transferOn(core.New(core.SingleHub(2), core.WithParams(params)), 0, 1, total, true))
}

// rawEndpoint turns a CAB board into a raw fiber endpoint that records
// packet arrivals and replies (for the HUB-level experiments).
type rawEndpoint struct {
	stack   *core.CABStack
	pktAt   []sim.Time
	replyAt []sim.Time
}

func captureRaw(stack *core.CABStack) *rawEndpoint {
	r := &rawEndpoint{stack: stack}
	stack.Board.SetItemHandler(func(it *fiber.Item) {
		switch it.Kind {
		case fiber.KindPacket:
			r.pktAt = append(r.pktAt, stack.Board.Engine().Now())
			stack.Board.DrainedPacket()
		case fiber.KindReply:
			r.replyAt = append(r.replyAt, stack.Board.Engine().Now())
		}
	})
	return r
}

// rawCommand builds a command item originating at the stack's board.
func rawCommand(stack *core.CABStack, op hub.Opcode, hubID, param byte) *fiber.Item {
	return &fiber.Item{
		Kind:    fiber.KindCommand,
		Cmd:     fiber.Command{Op: byte(op), Hub: hubID, Param: param},
		ReplyTo: stack.Board,
	}
}

// rawPacket builds a packet item.
func rawPacket(n int) *fiber.Item {
	return &fiber.Item{Kind: fiber.KindPacket, Payload: make([]byte, n)}
}

// hubSetupMeasurement measures (a) connection setup + first byte through a
// single HUB after the open command is received, and (b) the established-
// circuit transfer latency, using raw HUB commands — the §4 numbers.
func hubSetupMeasurement(params core.Params) (setup, transfer sim.Time) {
	prop := fiber.DefaultPropagation
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	a := sys.CAB(0)
	b := captureRaw(sys.CAB(1))
	captureRaw(a)
	eng := sys.Eng

	var t0 sim.Time
	eng.At(0, func() {
		t0 = eng.Now()
		a.Board.Send(rawCommand(a, hub.OpOpenRetry, sys.Net.Hub(0).ID(), byte(sys.Net.PortOf(1))), rawPacket(1))
	})
	// A second packet long after the circuit is up.
	var t1 sim.Time
	eng.At(sim.Millisecond, func() {
		t1 = eng.Now()
		a.Board.Send(rawPacket(1))
	})
	eng.Run()
	if len(b.pktAt) != 2 {
		return 0, 0
	}
	// Command fully received at the HUB: serialization (3B) + propagation.
	cmdReceived := t0 + 3*fiber.ByteTime + prop
	setup = b.pktAt[0] - prop - cmdReceived
	transfer = b.pktAt[1] - t1 - 2*prop
	return setup, transfer
}

// nodeSharedLatency measures node-process-to-node-process latency over the
// shared-memory CAB-node interface.
func nodeSharedLatency(size int) sim.Time { return nodeInterfaceRun(node.ModeShared, size) }

// nodeInterfaceRun measures the one-way latency of one size-byte message
// between processes on two nodes for a given CAB-node interface mode.
func nodeInterfaceRun(mode node.RecvMode, size int) sim.Time {
	return nodeTransfer(mode, size, node.DefaultParams())
}

func nodeTransfer(mode node.RecvMode, size int, np node.Params) sim.Time {
	sys := core.New(core.SingleHub(2))
	a := node.New(sys.CAB(0), "nodeA", np)
	b := node.New(sys.CAB(1), "nodeB", np)
	b.OpenBox(1, mode, 8*1024*1024)
	var sent, recvd sim.Time
	b.Go("rx", func(p *sim.Proc) {
		switch mode {
		case node.ModeShared:
			b.RecvShared(p, 1)
		case node.ModeSocket:
			b.RecvSocket(p, 1)
		case node.ModeDriver:
			b.RecvDriver(p, 1)
		}
		recvd = p.Now()
	})
	a.Go("tx", func(p *sim.Proc) {
		sent = p.Now()
		data := make([]byte, size)
		switch mode {
		case node.ModeShared:
			a.SendShared(p, b.CABID(), 1, data)
		case node.ModeSocket:
			a.SendSocket(p, b.CABID(), 1, data)
		case node.ModeDriver:
			a.SendDriver(p, b.CABID(), 1, data)
		}
	})
	sys.Run()
	return recvd - sent
}

// lanLatency measures one-way message latency on the Ethernet baseline.
func lanLatency(size int) sim.Time {
	eng := sim.NewEngine()
	eth := lan.NewEthernet(eng, lan.DefaultParams())
	a := eth.AddStation("a")
	b := eth.AddStation("b")
	b.OpenBox(1)
	var sent, recvd sim.Time
	eng.Go("rx", func(p *sim.Proc) {
		b.Recv(p, 1)
		recvd = p.Now()
	})
	eng.Go("tx", func(p *sim.Proc) {
		sent = p.Now()
		a.Send(p, b, 1, make([]byte, size))
	})
	eng.Run()
	return recvd - sent
}

// nodeThroughput measures bulk node-to-node throughput (shared-memory
// interface, pipelined in segment-byte pieces) in Mb/s.
func nodeThroughput(total, segment int) float64 {
	np := node.DefaultParams()
	np.PipelineSegment = segment
	return mbps(total, nodeTransfer(node.ModeShared, total, np))
}

// coreDefaults is a test seam for the default parameter set.
func coreDefaults() core.Params { return core.DefaultParams() }
