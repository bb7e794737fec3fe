// Package node models Nectar nodes — the Suns and Warps of the prototype —
// and the three CAB-node interfaces of paper §6.2.3, "with different
// tradeoffs between efficiency and transparency":
//
//  1. Shared memory: "the CAB memory is mapped into the address space of
//     the node process, and the node process builds or consumes messages in
//     place in CAB memory... This interface is efficient since it
//     eliminates copying the message between the node and the CAB and does
//     not involve the operating system on the node. Messages are received
//     by polling CAB memory."
//  2. Socket: "a Berkeley UNIX socket interface... less efficient since it
//     involves system call overhead and data copying on the node. But the
//     transport protocol overhead is off-loaded onto the CAB."
//  3. Network driver: "Nectar is used as a 'dumb' network and all transport
//     protocol processing is performed on the node."
//
// A node has its own (much slower, interrupt-burdened) CPU and talks to its
// CAB over a VME bus. Node software costs are the documented profile of
// mid-80s UNIX networking implementations ("the time spent in the software
// dominates the time spent on the wire", §3.1 and refs [3,5,11]).
package node

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Params are the node software cost parameters.
type Params struct {
	// Syscall is the node OS system-call overhead (entry + exit).
	Syscall sim.Time
	// CopyByteTime is the node's kernel/user copy cost per byte.
	CopyByteTime sim.Time
	// Interrupt is the node's interrupt service overhead.
	Interrupt sim.Time
	// PollInterval is the shared-memory receive polling period.
	PollInterval sim.Time
	// DriverPerPacket is the node-resident transport processing cost per
	// packet in network-driver mode.
	DriverPerPacket sim.Time
	// PipelineSegment is the segment size for overlapping VME and
	// Nectar-net transfers of large messages ("packet pipeline", §6.2.2);
	// 0 disables overlap (the whole message crosses VME first).
	PipelineSegment int
}

// DefaultParams returns costs representative of a 1988 UNIX workstation.
func DefaultParams() Params {
	return Params{
		Syscall:         100 * sim.Microsecond,
		CopyByteTime:    250 * sim.Nanosecond, // ~4 MB/s kernel copy
		Interrupt:       50 * sim.Microsecond,
		PollInterval:    10 * sim.Microsecond,
		DriverPerPacket: 250 * sim.Microsecond,
		PipelineSegment: 8 * 1024,
	}
}

// RecvMode selects the CAB-node interface a receive box uses.
type RecvMode int

// Receive interface modes.
const (
	ModeShared RecvMode = iota
	ModeSocket
	ModeDriver
)

// String returns the mode name.
func (m RecvMode) String() string {
	switch m {
	case ModeShared:
		return "shared-memory"
	case ModeSocket:
		return "socket"
	case ModeDriver:
		return "network-driver"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Message is a node-level message.
type Message struct {
	Src     int // source node (== CAB id)
	Data    []byte
	Arrived sim.Time
}

// nodeHdr frames node-layer segments inside transport messages.
const nodeHdrSize = 13

func encodeNodeHdr(msgID, seq, total uint32, kind byte, payload []byte) []byte {
	buf := make([]byte, nodeHdrSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:], msgID)
	binary.BigEndian.PutUint32(buf[4:], seq)
	binary.BigEndian.PutUint32(buf[8:], total)
	buf[12] = kind
	copy(buf[nodeHdrSize:], payload)
	return buf
}

func decodeNodeHdr(buf []byte) (msgID, seq, total uint32, kind byte, payload []byte, err error) {
	if len(buf) < nodeHdrSize {
		return 0, 0, 0, 0, nil, fmt.Errorf("node: short segment (%d bytes)", len(buf))
	}
	return binary.BigEndian.Uint32(buf[0:]),
		binary.BigEndian.Uint32(buf[4:]),
		binary.BigEndian.Uint32(buf[8:]),
		buf[12],
		buf[nodeHdrSize:], nil
}

// Frame wraps data as a single node-layer segment, for senders (such as
// CAB-resident Nectarine tasks) that interoperate with node-interface
// receivers.
func Frame(msgID uint32, data []byte) []byte {
	return encodeNodeHdr(msgID, 0, uint32(len(data)), 0, data)
}

// Unframe strips a single-segment node-layer header.
func Unframe(wire []byte) ([]byte, error) {
	_, seq, total, _, payload, err := decodeNodeHdr(wire)
	if err != nil {
		return nil, err
	}
	if seq != 0 || int(total) != len(payload) {
		return nil, fmt.Errorf("node: multi-segment message where single expected (seq=%d total=%d len=%d)",
			seq, total, len(payload))
	}
	return payload, nil
}

// sendReq is a command descriptor placed in the CAB's command mailbox.
type sendReq struct {
	dst      int
	dstBox   uint16
	srcBox   uint16
	wire     []byte // node-framed segment, already in CAB memory
	datagram bool   // driver mode uses datagrams; others the byte stream
	sp       *trace.Span
}

// box is one node-level receive endpoint.
type box struct {
	mode RecvMode
	mb   *kernel.Mailbox // CAB-side mailbox (transport delivery target)

	// Node-side delivery queue (socket and driver modes).
	delivered *sim.Queue[Message]

	// Driver-mode reassembly state, keyed by (src, msgID).
	partial map[partialKey]*partialMsg
}

type partialKey struct {
	src   int
	msgID uint32
}

type partialMsg struct {
	segs  map[uint32][]byte
	total uint32
	got   uint32
}

// Node is one Nectar node.
type Node struct {
	eng    *sim.Engine
	name   string
	stack  *core.CABStack
	params Params

	// CPU is the node's processor (shared by its processes and its
	// interrupt handlers).
	CPU *cab.CPU
	// VME is the bus to the CAB.
	VME *cab.VME

	boxes map[uint16]*box

	// Command mailbox plumbing: requests to the CAB proxy thread.
	cmds   sim.FIFO[sendReq]
	cmdSem *kernel.Sem

	nextMsg uint32
	// sockBox numbers dynamically allocated socket connection boxes.
	sockBox uint16
}

// New attaches a node to a CAB stack and starts the CAB-side proxy thread
// that services the node's command mailbox.
func New(stack *core.CABStack, name string, params Params) *Node {
	n := &Node{
		eng:    stack.Kernel.Engine(),
		name:   name,
		stack:  stack,
		params: params,
		CPU:    cab.NewCPU(stack.Kernel.Engine()),
		VME:    cab.NewVME(stack.Kernel.Engine()),
		boxes:  make(map[uint16]*box),
		cmdSem: stack.Kernel.NewSem(0),
	}
	stack.Kernel.SpawnDaemon("node-proxy", n.proxyLoop)
	return n
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// CABID returns the attached CAB's network id (also used as the node's
// address).
func (n *Node) CABID() int { return n.stack.Board.ID() }

// proxyLoop is the CAB-side thread serving the node's command mailbox
// ("Node processes invoke services by placing a command in a special
// mailbox on the CAB", §6.2.3).
func (n *Node) proxyLoop(th *kernel.Thread) {
	for {
		n.cmdSem.P(th)
		if n.cmds.Len() == 0 {
			continue
		}
		req := n.cmds.Pop()
		prev := th.SetSpan(req.sp)
		if req.datagram {
			n.stack.TP.SendDatagram(th, req.dst, req.dstBox, req.srcBox, req.wire)
		} else {
			n.stack.TP.StreamSend(th, req.dst, req.dstBox, req.srcBox, req.wire)
		}
		th.SetSpan(prev)
	}
}

// postCommand places a command descriptor in the CAB command mailbox (a
// handful of programmed-I/O words over VME, charged to the node CPU).
func (n *Node) postCommand(p *sim.Proc, req sendReq) {
	n.CPU.Compute(p, n.VME.PIOTime(16))
	n.cmds.Push(req)
	n.cmdSem.V()
}

// OpenBox creates a receive endpoint on this node using the given
// interface mode. capacity bounds the CAB-side mailbox.
func (n *Node) OpenBox(boxID uint16, mode RecvMode, capacity int) {
	mb := n.stack.Kernel.NewMailbox(fmt.Sprintf("%s-box%d", n.name, boxID), capacity)
	n.stack.TP.Register(boxID, mb)
	bx := &box{
		mode:      mode,
		mb:        mb,
		delivered: sim.NewQueue[Message](n.eng),
		partial:   make(map[partialKey]*partialMsg),
	}
	n.boxes[boxID] = bx
	if mode == ModeSocket || mode == ModeDriver {
		// A CAB-side thread pushes arrivals up to the node with a VME
		// transfer and an interrupt.
		n.stack.Kernel.SpawnDaemon(fmt.Sprintf("%s-push%d", n.name, boxID), func(th *kernel.Thread) {
			n.pushLoop(th, bx)
		})
	}
}

// pushLoop moves messages from a CAB mailbox up to the node (socket and
// driver modes).
func (n *Node) pushLoop(th *kernel.Thread, bx *box) {
	for {
		msg := bx.mb.Get(th)
		data := msg.Bytes()
		src := msg.Src
		sp := msg.Span
		bx.mb.Release(msg)
		// DMA the message across the VME bus, then interrupt the node.
		n.VME.TransferWaitSpan(th.Proc(), len(data), sp)
		arrived := n.eng.Now()
		// Node-side interrupt handling, charged to the node CPU.
		isp := sp.Child(trace.LayerNode, n.name, "net-intr")
		n.CPU.Submit(cab.PrioInterrupt, n.params.Interrupt, func() {
			isp.End()
			n.nodeDeliver(bx, src, data, arrived)
		})
	}
}

// nodeDeliver runs in node interrupt context: driver mode additionally pays
// node-resident transport processing and performs reassembly.
func (n *Node) nodeDeliver(bx *box, src int, wire []byte, arrived sim.Time) {
	msgID, seq, total, _, payload, err := decodeNodeHdr(wire)
	if err != nil {
		return
	}
	if bx.mode == ModeDriver {
		// "All transport protocol processing is performed on the node":
		// charge it per packet, then reassemble.
		n.CPU.Submit(cab.PrioInterrupt, n.params.DriverPerPacket, func() {
			n.driverReassemble(bx, src, msgID, seq, total, payload, arrived)
		})
		return
	}
	// Socket mode: segments of a pipelined message reassemble here too
	// (the kernel buffers them), then the message is queued for the
	// blocked receiver.
	n.driverReassemble(bx, src, msgID, seq, total, payload, arrived)
}

// driverReassemble accumulates segments; a completed message is queued for
// the receiving process.
func (n *Node) driverReassemble(bx *box, src int, msgID, seq, total uint32, payload []byte, arrived sim.Time) {
	key := partialKey{src: src, msgID: msgID}
	pm := bx.partial[key]
	if pm == nil {
		pm = &partialMsg{segs: make(map[uint32][]byte), total: total}
		bx.partial[key] = pm
	}
	if _, dup := pm.segs[seq]; dup {
		return
	}
	pm.segs[seq] = payload
	pm.got += uint32(len(payload))
	if pm.got < pm.total {
		return
	}
	// Assemble in segment order.
	data := make([]byte, 0, pm.total)
	for i := uint32(0); ; i++ {
		sg, ok := pm.segs[i]
		if !ok {
			break
		}
		data = append(data, sg...)
	}
	delete(bx.partial, key)
	bx.delivered.Put(Message{Src: src, Data: data, Arrived: arrived})
}
