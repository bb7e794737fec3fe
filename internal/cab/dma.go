package cab

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// DMA channels (paper §5.1: "The DMA controller is able to manage
// simultaneous data transfers between the incoming and outgoing fibers and
// CAB memory, as well as between VME and CAB memory, leaving the CAB CPU
// free for protocol and application processing").
type Channel int

// DMA channels.
const (
	ChanFiberOut Channel = iota
	ChanFiberIn
	ChanVME
	numChannels
)

// String returns the channel name.
func (c Channel) String() string {
	switch c {
	case ChanFiberOut:
		return "fiber-out"
	case ChanFiberIn:
		return "fiber-in"
	case ChanVME:
		return "vme"
	default:
		return fmt.Sprintf("chan(%d)", int(c))
	}
}

// Per-byte transfer times. The fibers run at 100 Mb/s = 12.5 MB/s; the
// initial VME interface supports 10 MB/s (paper §5.2). The 66 MB/s data
// memory sustains all channels plus the CPU concurrently, so no memory
// contention is modeled (the paper sized it so there is none).
//
// The fiber-in channel drains the input queue at memory speed (the 66 MB/s
// data memory); it can never finish before the packet's last byte arrives,
// which callers enforce with the packet's arrival end time. The fiber-out
// channel is paced by the outgoing fiber itself.
const (
	FiberChanByteTime = 80 * sim.Nanosecond
	DrainByteTime     = 15 * sim.Nanosecond
	VMEByteTime       = 100 * sim.Nanosecond
)

// DMA is the CAB's three-channel DMA controller. Channels operate
// concurrently with each other and with the CPU; transfers on one channel
// are serviced in FIFO order.
type DMA struct {
	eng       *sim.Engine
	name      string
	busyUntil [numChannels]sim.Time
	rate      [numChannels]sim.Time
	transfers [numChannels]int64
	bytes     [numChannels]int64
}

// NewDMA returns a DMA controller with prototype channel rates.
func NewDMA(eng *sim.Engine) *DMA {
	d := &DMA{eng: eng, name: "dma"}
	d.rate[ChanFiberOut] = FiberChanByteTime
	d.rate[ChanFiberIn] = DrainByteTime
	d.rate[ChanVME] = VMEByteTime
	return d
}

// SetName sets the controller's trace component name (e.g. "cab0.dma").
func (d *DMA) SetName(name string) { d.name = name }

// Transfers returns the number of transfers completed or queued on ch.
func (d *DMA) Transfers(ch Channel) int64 { return d.transfers[ch] }

// Bytes returns the bytes moved on ch.
func (d *DMA) Bytes(ch Channel) int64 { return d.bytes[ch] }

// Transfer queues n bytes on ch; done (optional) runs at completion.
// It returns the completion time. The CPU is not involved: the kernel
// charges only its own setup cost.
func (d *DMA) Transfer(ch Channel, n int, done func()) sim.Time {
	if n < 0 {
		panic(fmt.Sprintf("cab: negative DMA length %d", n))
	}
	start := d.eng.Now()
	if start < d.busyUntil[ch] {
		start = d.busyUntil[ch]
	}
	end := start + sim.Time(n)*d.rate[ch]
	d.busyUntil[ch] = end
	d.transfers[ch]++
	d.bytes[ch] += int64(n)
	if done != nil {
		d.eng.At(end, done)
	}
	return end
}

// TransferSpan is Transfer with trace attribution: with a non-nil parent
// span, the channel time this transfer occupies is recorded as a child
// span in the DMA layer (nil parent costs nothing). The transfer's span
// starts when the channel begins serving it (after queued work) and ends
// at completion.
func (d *DMA) TransferSpan(ch Channel, n int, done func(), parent *trace.Span) sim.Time {
	end := d.Transfer(ch, n, done)
	if parent != nil {
		parent.ChildAt(end-sim.Time(n)*d.rate[ch], trace.LayerDMA, d.name, ch.String()).EndAt(end)
	}
	return end
}

// Timer is a cancellable hardware timer ("hardware timers allow time-outs
// to be set by the software with low overhead", paper §5.1). Its owner
// keeps it and re-arms it with Timers.Arm, so arming allocates nothing once
// the timer has been armed the first time. The zero Timer is idle. An idle
// timer may be armed on another bank of the same engine: bank is the bank
// of the last Arm.
type Timer struct {
	ev       sim.Event
	bank     *Timers
	fn       func()
	expireFn func() // expire, bound on the first Arm
}

// Cancel stops the timer if it is pending. Canceling an idle timer, or one
// that already fired, does nothing.
func (t *Timer) Cancel() {
	if t.bank != nil {
		t.bank.eng.Cancel(t.ev)
	}
}

// Pending reports whether the timer is armed and has not fired.
func (t *Timer) Pending() bool { return !t.ev.Canceled() }

// expire runs the timer's function when it fires.
func (t *Timer) expire() {
	t.bank.fired++
	t.fn()
}

// Timers is the CAB's bank of hardware timers.
type Timers struct {
	eng   *sim.Engine
	set   int64
	fired int64
}

// NewTimers returns the timer bank.
func NewTimers(eng *sim.Engine) *Timers {
	return &Timers{eng: eng}
}

// Arm cancels tm if it is pending, then arms it to run fn after d.
func (t *Timers) Arm(tm *Timer, d sim.Time, fn func()) {
	tm.Cancel()
	tm.bank = t
	if tm.expireFn == nil {
		tm.expireFn = tm.expire
	}
	t.set++
	tm.fn = fn
	tm.ev = t.eng.After(d, tm.expireFn)
}

// Armed returns how many times a timer was armed; Expired how many fired.
func (t *Timers) Armed() int64   { return t.set }
func (t *Timers) Expired() int64 { return t.fired }
