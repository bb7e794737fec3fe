package cab

import (
	"repro/internal/fiber"
	"repro/internal/sim"
)

// Board is one CAB: the hardware platform that the CAB kernel, datalink and
// transport software run on. It is a fiber.Endpoint (the two fibers connect
// it to a HUB port) and exposes the devices of paper Figure 8: CPU, DMA
// controller, memory with protection, checksum unit, and timers.
type Board struct {
	eng  *sim.Engine
	name string
	id   int // network-wide CAB identifier (datalink address)

	CPU    *CPU
	Mem    *Memory
	DMA    *DMA
	Timers *Timers

	// Fiber side.
	out *fiber.Link
	// netReady is the CAB's outgoing ready bit: the HUB input queue at
	// the far end of our output fiber can accept another packet.
	netReady    bool
	netReadySig *sim.Signal
	// itemHandler is the datalink's raw receive hook, called at an
	// item's first-byte arrival (the hardware raises the interrupt on
	// start of packet).
	itemHandler func(*fiber.Item)
	// drainUpstream returns a drained or discarded packet's credit to the
	// HUB output register feeding us (set by wiring).
	drainUpstream func()

	// powered is false while the board is crashed (fault injection): the
	// fiber interface neither receives nor transmits.
	powered bool

	crashes int64
}

// NewBoard creates a CAB board with all devices.
func NewBoard(eng *sim.Engine, id int, name string) *Board {
	b := &Board{
		eng:         eng,
		name:        name,
		id:          id,
		CPU:         NewCPU(eng),
		Mem:         NewMemory(),
		DMA:         NewDMA(eng),
		Timers:      NewTimers(eng),
		netReady:    true,
		netReadySig: sim.NewSignal(eng),
		powered:     true,
	}
	b.DMA.SetName(name + ".dma")
	return b
}

// Engine returns the simulation engine.
func (b *Board) Engine() *sim.Engine { return b.eng }

// ID returns the CAB's network identifier.
func (b *Board) ID() int { return b.id }

// Name returns the board name.
func (b *Board) Name() string { return b.name }

// EndpointName implements fiber.Endpoint.
func (b *Board) EndpointName() string { return b.name }

// AttachNet wires the board's outgoing fiber. drainUpstream is invoked when
// the board's input queue drains or discards a packet, restoring the
// upstream HUB output's ready bit.
func (b *Board) AttachNet(out *fiber.Link, drainUpstream func()) {
	b.out = out
	b.drainUpstream = drainUpstream
}

// SetItemHandler registers the datalink receive hook.
func (b *Board) SetItemHandler(fn func(*fiber.Item)) { b.itemHandler = fn }

// PowerOff halts the board (fault injection): from now until PowerOn, the
// fiber interface drops arriving items and refuses transmissions. The
// software stacks must separately discard their in-flight state (see
// core.CABStack.Crash).
func (b *Board) PowerOff() {
	b.powered = false
	b.crashes++
}

// PowerOn restarts a crashed board's hardware. The power-on reset sets the
// outgoing ready bit, returning the credit of any packet Send withheld.
func (b *Board) PowerOn() {
	b.powered = true
	b.SetNetReady()
}

// Powered reports whether the board is running.
func (b *Board) Powered() bool { return b.powered }

// Crashes returns the number of PowerOff events.
func (b *Board) Crashes() int64 { return b.crashes }

// Receive implements fiber.Endpoint: an item arrived on the incoming fiber.
// A packet the board cannot take is discarded and drains at once.
func (b *Board) Receive(it *fiber.Item) {
	if b.powered {
		if b.itemHandler != nil {
			b.itemHandler(it)
			return
		}
	}
	if it.Kind == fiber.KindPacket {
		b.DrainedPacket()
	}
}

// Send serializes items onto the outgoing fiber in order. A powered-off
// board transmits nothing, and the credit taken for a withheld packet
// returns at PowerOn: until then the cleared ready bit parks the crashed
// board's surviving threads, its link prober included (DESIGN §18).
func (b *Board) Send(items ...*fiber.Item) {
	if !b.powered {
		return
	}
	for _, it := range items {
		b.out.Send(it, b.eng.Now())
	}
}

// NetReady reports the outgoing ready bit (the attached HUB input queue can
// accept another packet).
func (b *Board) NetReady() bool { return b.netReady }

// ClearNetReady marks the attached HUB input queue as holding our packet
// (called by the datalink when it launches a packet-switched packet).
func (b *Board) ClearNetReady() { b.netReady = false }

// SetNetReady is called (via topology wiring) when the attached HUB input
// queue drains; it wakes any process blocked in WaitNetReady.
func (b *Board) SetNetReady() {
	b.netReady = true
	b.netReadySig.Broadcast()
}

// WaitNetReady blocks the process until the outgoing ready bit is set.
func (b *Board) WaitNetReady(p *sim.Proc) {
	for !b.netReady {
		b.netReadySig.Wait(p)
	}
}

// DrainedPacket is called by the datalink when the start of packet has been
// moved out of the board's input queue (DMA into a mailbox has begun); it
// propagates the ready signal upstream.
func (b *Board) DrainedPacket() {
	if b.drainUpstream != nil {
		b.drainUpstream()
	}
}
