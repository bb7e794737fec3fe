package node

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// segments splits a message into node-layer segments of PipelineSegment
// bytes (one segment when pipelining is disabled or the message is small).
func (n *Node) segments(data []byte) [][]byte {
	segSize := n.params.PipelineSegment
	if segSize <= 0 || len(data) <= segSize {
		return [][]byte{data}
	}
	var segs [][]byte
	for off := 0; off < len(data); off += segSize {
		end := off + segSize
		if end > len(data) {
			end = len(data)
		}
		segs = append(segs, data[off:end])
	}
	return segs
}

// sendSegments moves the message across VME segment by segment, posting
// each to the CAB as it lands; the CAB streams segment k over the
// Nectar-net while segment k+1 crosses the VME bus — the "packet pipeline"
// of §6.2.2 ("it is important to overlap packet transfers over the
// Nectar-net and over the VME bus at each end").
func (n *Node) sendSegments(p *sim.Proc, dstCAB int, dstBox uint16, data []byte, datagram bool, pio bool) {
	segs := n.segments(data)
	n.nextMsg++
	msgID := n.nextMsg
	var sp *trace.Span
	if tr := n.stack.Kernel.Tracer(); tr != nil {
		sp = tr.Start(nil, trace.LayerNode, n.name, "node-send")
	}
	for i, seg := range segs {
		wire := encodeNodeHdr(msgID, uint32(i), uint32(len(data)), 0, seg)
		if pio {
			// Build the message in place in CAB memory with
			// processor writes (fine for small messages).
			n.CPU.Compute(p, n.VME.PIOTime(len(wire)))
		} else {
			n.VME.TransferWaitSpan(p, len(wire), sp)
		}
		n.postCommand(p, sendReq{
			dst: dstCAB, dstBox: dstBox, srcBox: 0,
			wire: wire, datagram: datagram, sp: sp,
		})
	}
	sp.End()
}

// SendShared transmits via the shared-memory interface: no system calls,
// no node-side copies; the node builds the message in CAB memory and
// posts a command to the CAB's command mailbox.
func (n *Node) SendShared(p *sim.Proc, dstCAB int, dstBox uint16, data []byte) {
	// Small messages are built in place with programmed I/O; large ones
	// use VME DMA.
	pio := len(data) <= 256
	n.sendSegments(p, dstCAB, dstBox, data, false, pio)
}

// SendSharedWhole is SendShared without pipeline segmentation: the message
// travels as a single node-layer segment regardless of size (used by layers
// that need single-segment framing, such as Nectarine).
func (n *Node) SendSharedWhole(p *sim.Proc, dstCAB int, dstBox uint16, data []byte) {
	n.nextMsg++
	wire := encodeNodeHdr(n.nextMsg, 0, uint32(len(data)), 0, data)
	var sp *trace.Span
	if tr := n.stack.Kernel.Tracer(); tr != nil {
		sp = tr.Start(nil, trace.LayerNode, n.name, "node-send")
	}
	if len(wire) <= 256 {
		n.CPU.Compute(p, n.VME.PIOTime(len(wire)))
	} else {
		n.VME.TransferWaitSpan(p, len(wire), sp)
	}
	n.postCommand(p, sendReq{dst: dstCAB, dstBox: dstBox, wire: wire, sp: sp})
	sp.End()
}

// RecvShared receives by polling CAB memory (no system calls, no
// interrupts). The box must be open in ModeShared.
func (n *Node) RecvShared(p *sim.Proc, boxID uint16) Message {
	bx := n.boxes[boxID]
	if bx == nil || bx.mode != ModeShared {
		panic(fmt.Sprintf("node: box %d not open in shared mode", boxID))
	}
	type part struct {
		src               int
		msgID, seq, total uint32
		payload           []byte
		arrived           sim.Time
	}
	for {
		// One poll: a few programmed-I/O reads of the mailbox header.
		n.CPU.Compute(p, n.VME.PIOTime(8))
		msg, ok := bx.mb.TryGet()
		if !ok {
			if m, ok := bx.delivered.TryGet(); ok {
				return m
			}
			p.Sleep(n.params.PollInterval)
			continue
		}
		// Consume the segment in place in CAB memory, copying it down
		// with VME DMA (reads by the node processor would be PIO; DMA
		// models the block-mode read path).
		wire := msg.Bytes()
		src := msg.Src
		arrived := msg.Arrived
		msp := msg.Span
		bx.mb.Release(msg)
		n.VME.TransferWaitSpan(p, len(wire), msp)
		pt := part{src: src, arrived: arrived}
		var err error
		var kind byte
		pt.msgID, pt.seq, pt.total, kind, pt.payload, err = decodeNodeHdr(wire)
		_ = kind
		if err != nil {
			continue
		}
		n.driverReassemble(bx, pt.src, pt.msgID, pt.seq, pt.total, pt.payload, pt.arrived)
		if m, ok := bx.delivered.TryGet(); ok {
			return m
		}
	}
}

// SendSocket transmits via the Berkeley-socket interface: system call and a
// kernel copy on the node, then the off-loaded CAB transport.
func (n *Node) SendSocket(p *sim.Proc, dstCAB int, dstBox uint16, data []byte) {
	n.CPU.Compute(p, n.params.Syscall)
	n.CPU.Compute(p, sim.Time(len(data))*n.params.CopyByteTime)
	n.sendSegments(p, dstCAB, dstBox, data, false, false)
}

// RecvSocket blocks in a read system call until a message is pushed up by
// the CAB (VME interrupt), then pays the kernel-to-user copy.
func (n *Node) RecvSocket(p *sim.Proc, boxID uint16) Message {
	bx := n.boxes[boxID]
	if bx == nil || bx.mode != ModeSocket {
		panic(fmt.Sprintf("node: box %d not open in socket mode", boxID))
	}
	n.CPU.Compute(p, n.params.Syscall)
	m := bx.delivered.Get(p)
	n.CPU.Compute(p, sim.Time(len(m.Data))*n.params.CopyByteTime)
	return m
}

// SendDriver transmits with Nectar as a "dumb" network: the node performs
// the transport processing per packet and hands raw datagrams to the CAB.
func (n *Node) SendDriver(p *sim.Proc, dstCAB int, dstBox uint16, data []byte) {
	n.CPU.Compute(p, n.params.Syscall)
	// The node-resident transport fragments to packet-sized datagrams.
	const frag = 976 // node hdr + transport hdr + frag fits a 1 KB packet
	n.nextMsg++
	msgID := n.nextMsg
	var sp *trace.Span
	if tr := n.stack.Kernel.Tracer(); tr != nil {
		sp = tr.Start(nil, trace.LayerNode, n.name, "node-send")
	}
	nsegs := (len(data) + frag - 1) / frag
	if nsegs == 0 {
		nsegs = 1
	}
	for i := 0; i < nsegs; i++ {
		lo := i * frag
		hi := lo + frag
		if hi > len(data) {
			hi = len(data)
		}
		n.CPU.Compute(p, n.params.DriverPerPacket)
		n.CPU.Compute(p, sim.Time(hi-lo)*n.params.CopyByteTime)
		wire := encodeNodeHdr(msgID, uint32(i), uint32(len(data)), 1, data[lo:hi])
		n.VME.TransferWaitSpan(p, len(wire), sp)
		n.postCommand(p, sendReq{
			dst: dstCAB, dstBox: dstBox, srcBox: 0,
			wire: wire, datagram: true, sp: sp,
		})
	}
	sp.End()
}

// RecvDriver blocks until the node-resident transport has reassembled a
// whole message from raw packets (each of which cost an interrupt and
// per-packet protocol processing; see pushLoop/nodeDeliver).
func (n *Node) RecvDriver(p *sim.Proc, boxID uint16) Message {
	bx := n.boxes[boxID]
	if bx == nil || bx.mode != ModeDriver {
		panic(fmt.Sprintf("node: box %d not open in driver mode", boxID))
	}
	n.CPU.Compute(p, n.params.Syscall)
	m := bx.delivered.Get(p)
	n.CPU.Compute(p, sim.Time(len(m.Data))*n.params.CopyByteTime)
	return m
}

// Go starts a node process (a program running on the node's CPU).
func (n *Node) Go(name string, body func(p *sim.Proc)) *sim.Proc {
	return n.eng.Go(n.name+"/"+name, body)
}

// GoDaemon starts a node service process excluded from deadlock detection.
func (n *Node) GoDaemon(name string, body func(p *sim.Proc)) *sim.Proc {
	return n.eng.GoDaemon(n.name+"/"+name, body)
}

// Compute charges d to the node CPU from process context.
func (n *Node) Compute(p *sim.Proc, d sim.Time) {
	n.CPU.Compute(p, d)
}
