package cab

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// VME models the bus between a node and its CAB (paper §5.2: "The initial
// CAB implementation supports a VME bandwidth of 10 megabytes/second").
// Block transfers (DMA) and programmed I/O share the bus; interrupts in
// both directions carry a small hardware delivery delay.
//
// One VME instance connects exactly one node to one CAB.
type VME struct {
	eng       *sim.Engine
	name      string
	busyUntil sim.Time

	// Programmed I/O moves one 4-byte word per bus transaction and is
	// slower than block mode.
	wordTime sim.Time

	transfers int64
	bytes     int64

	// Interrupt targets, registered by each side.
	nodeIntr func()
	cabIntr  func()
}

// VME timing parameters.
const (
	// vmeWordTime is the programmed-I/O cost per 32-bit word (~2.5 MB/s,
	// typical for single-cycle VME accesses of the era).
	vmeWordTime = 1600 * sim.Nanosecond
	// vmeInterruptDelay is the bus interrupt delivery latency.
	vmeInterruptDelay = 2 * sim.Microsecond
)

// NewVME returns a VME bus.
func NewVME(eng *sim.Engine) *VME {
	return &VME{eng: eng, name: "vme", wordTime: vmeWordTime}
}

// SetName sets the bus's trace component name (e.g. "nodeA.vme").
func (v *VME) SetName(name string) { v.name = name }

// Bytes returns total bytes moved over the bus.
func (v *VME) Bytes() int64 { return v.bytes }

// Transfer queues an n-byte block (DMA) transfer; done runs at completion.
// It returns the completion time.
func (v *VME) Transfer(n int, done func()) sim.Time {
	start := v.eng.Now()
	if start < v.busyUntil {
		start = v.busyUntil
	}
	end := start + sim.Time(n)*VMEByteTime
	v.busyUntil = end
	v.transfers++
	v.bytes += int64(n)
	if done != nil {
		v.eng.At(end, done)
	}
	return end
}

// TransferSpan is Transfer with trace attribution: with a non-nil parent
// span, the bus time this transfer occupies is recorded as a child span in
// the VME layer (nil parent costs nothing).
func (v *VME) TransferSpan(n int, done func(), parent *trace.Span) sim.Time {
	end := v.Transfer(n, done)
	if parent != nil {
		parent.ChildAt(end-sim.Time(n)*VMEByteTime, trace.LayerVME, v.name, "block-xfer").EndAt(end)
	}
	return end
}

// TransferWaitSpan blocks the calling process for an n-byte block transfer,
// with trace attribution.
func (v *VME) TransferWaitSpan(p *sim.Proc, n int, parent *trace.Span) {
	v.TransferSpan(n, p.Wake, parent)
	p.Park()
}

// PIOTime returns the bus time to move n bytes with programmed I/O
// (word-at-a-time); the caller charges it to the node CPU, since the
// processor drives every transaction.
func (v *VME) PIOTime(n int) sim.Time {
	words := (n + 3) / 4
	return sim.Time(words) * v.wordTime
}

// OnNodeInterrupt registers the node-side interrupt handler.
func (v *VME) OnNodeInterrupt(fn func()) { v.nodeIntr = fn }

// OnCABInterrupt registers the CAB-side interrupt handler.
func (v *VME) OnCABInterrupt(fn func()) { v.cabIntr = fn }

// InterruptNode raises a VME interrupt at the node ("The CAB invokes these
// services by interrupting the node over the VME bus", paper §6.1).
func (v *VME) InterruptNode() {
	if v.nodeIntr != nil {
		v.eng.After(vmeInterruptDelay, v.nodeIntr)
	}
}

// InterruptCAB raises a VME interrupt at the CAB.
func (v *VME) InterruptCAB() {
	if v.cabIntr != nil {
		v.eng.After(vmeInterruptDelay, v.cabIntr)
	}
}
