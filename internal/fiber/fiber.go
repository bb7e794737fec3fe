// Package fiber models Nectar's fiber-optic lines (paper §3.2): 100
// megabit/second serial links (a limit imposed by the prototype's TAXI
// serializer chips), used in pairs carrying signals in opposite directions.
//
// A Link carries Items — HUB commands (3 bytes), data packets (framed by
// start-of-packet and end-of-packet), and command replies — in order, with
// serialization delay at the link's byte rate plus a fixed propagation
// delay. Links can inject errors: TAXI code violations surface as framing
// errors, other corruption as real bit flips in the payload (to be caught by
// the CAB's hardware checksum).
package fiber

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Default link parameters for the prototype.
const (
	// ByteTime is the serialization time of one byte at 100 Mb/s.
	ByteTime = 80 * sim.Nanosecond
	// DefaultPropagation is the one-way propagation delay of a short
	// machine-room fiber run (~10 m at ~5 ns/m).
	DefaultPropagation = 50 * sim.Nanosecond
	// FramingBytes is the per-packet framing overhead: start-of-packet
	// and end-of-packet symbols.
	FramingBytes = 2
	// CommandBytes is the wire size of a HUB command or reply
	// (command byte, HUB ID byte, parameter byte — paper §4.2).
	CommandBytes = 3
	// CombBytes is the wire size of a combining command: the classic
	// 3-byte prefix followed by lane, tag, fan-in count, sequence, and
	// the 8-byte operand (see package hub's combining command set).
	CombBytes = CommandBytes + 1 + 2 + 2 + 4 + 8
)

// ItemKind discriminates the things that travel on a fiber.
type ItemKind int

// Item kinds.
const (
	KindCommand ItemKind = iota // a 3-byte HUB command
	KindPacket                  // a framed data packet
	KindReply                   // a HUB command reply (reverse direction)
)

// String returns the kind name.
func (k ItemKind) String() string {
	switch k {
	case KindCommand:
		return "command"
	case KindPacket:
		return "packet"
	case KindReply:
		return "reply"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Command is the 3-byte HUB command encoding of paper §4.2:
// "command | HUB ID | param".
type Command struct {
	Op    byte // opcode (see package hub for the command set)
	Hub   byte // ID of the HUB the command is directed to
	Param byte // typically a port ID on that HUB
}

// String formats the command bytes.
func (c Command) String() string {
	return fmt.Sprintf("cmd{op=%d hub=%d param=%d}", c.Op, c.Hub, c.Param)
}

// Endpoint consumes items arriving from a link. Receive is called at the
// item's first-byte arrival time (Item.Start); cut-through devices may begin
// forwarding immediately, store-and-forward devices wait until Item.End().
type Endpoint interface {
	// Receive accepts an arriving item. Items on one link arrive in
	// FIFO order.
	Receive(it *Item)
	// EndpointName identifies the endpoint for tracing.
	EndpointName() string
}

// CombData is the extension a combining command carries beyond the
// classic 3-byte encoding (Cmd.Param holds the group id). Tag+Lane+Seq
// identify the combining slot at the HUB; Count is the expected fan-in;
// Operand is one 8-byte lane (int64, or float64 bits for float lanes).
type CombData struct {
	Lane    byte
	Tag     uint16
	Count   uint16
	Seq     uint32
	Operand uint64
}

// Item is one unit traveling on a fiber. Its one-byte fields sit together
// after Cmd, so the frame pointer fits without growing it past 112 bytes.
type Item struct {
	Kind ItemKind

	// Cmd holds the command bytes for KindCommand and KindReply.
	Cmd Command

	// FrameError marks an item damaged in a way the receiving hardware
	// detects (TAXI code violation). The datalink discards such items
	// and counts the error.
	FrameError bool

	// Corrupt marks an item whose payload was silently bit-flipped (set
	// only for testing assertions; receivers must not consult it — the
	// transport checksum is the real detection path).
	Corrupt bool

	// ReplyOK and ReplyVal carry a reply's status and value.
	ReplyOK  bool
	ReplyVal byte

	// Shared marks a packet whose payload another item also carries:
	// Clone sets it on the original and on the copy, so every branch of a
	// fan-out has it. A receiver of a shared packet is not the payload's
	// only holder and must not reuse its buffer.
	Shared bool

	// Comb holds the combining extension for combining commands
	// (nil for every other command; see package hub).
	Comb *CombData

	// Payload is the packet body for KindPacket. It includes all
	// transport framing; fiber/hub treat it as opaque bytes.
	Payload []byte

	// Start is the first-byte time at the item's current position; links
	// and HUB ports update it as the item moves.
	Start sim.Time

	// ReplyData carries the 8-byte result of a combining command's
	// reply. Replies ride the out-of-band reverse channel (see ReplyTo),
	// so the wider result has no wire cost in the forward direction.
	ReplyData uint64

	// ReplyTo is the endpoint that should receive replies generated by
	// commands in this item's frame. The reverse channel steals cycles
	// from the opposite-direction fibers (paper §4.2.1) and is never
	// blocked, so replies are modeled as out-of-band deliveries with a
	// per-hop delay rather than as queued traffic.
	ReplyTo Endpoint

	// Hops counts HUBs traversed so far, for reply-delay accounting.
	Hops int

	// Token identifies the frame a command belongs to; replies echo it so
	// the originating CAB can match a reply to its pending command. (On
	// the real hardware this correlation is positional in the byte
	// stream; an explicit token models it without byte-level framing.)
	Token uint64

	// Span is the originating send's trace span; links and HUB ports hang
	// their per-hop child spans off it so a message can be followed
	// end-to-end. nil when tracing is disabled (no per-item cost then).
	Span *trace.Span

	// frame is the frame that tracks this item until it is consumed (nil
	// for an untracked item; see Frame).
	frame *Frame
}

// Clone returns a shallow copy of the item (payload shared) and marks both
// the item and the copy Shared. Forwarding devices clone before re-sending
// so per-copy timing fields do not alias, e.g. one copy per multicast
// branch. The copy is never tracked: only the original returns its frame to
// the store (see Consume).
func (it *Item) Clone() *Item {
	it.Shared = true
	c := *it
	c.frame = nil
	return &c
}

// Bytes returns the wire size of the item.
func (it *Item) Bytes() int {
	switch it.Kind {
	case KindCommand:
		if it.Comb != nil {
			return CombBytes
		}
		return CommandBytes
	case KindReply:
		return CommandBytes
	default:
		return len(it.Payload) + FramingBytes
	}
}

// End returns the last-byte time at the item's current position.
func (it *Item) End() sim.Time {
	return it.Start + sim.Time(it.Bytes())*ByteTime
}

// String describes the item for tracing.
func (it *Item) String() string {
	switch it.Kind {
	case KindPacket:
		return fmt.Sprintf("packet[%dB]", len(it.Payload))
	case KindReply:
		return fmt.Sprintf("reply{%v ok=%v}", it.Cmd, it.ReplyOK)
	default:
		return it.Cmd.String()
	}
}

// ErrorModel configures fault injection on a link.
type ErrorModel struct {
	// BitErrorRate is the per-byte probability that an item is damaged
	// in transit. Zero disables injection.
	BitErrorRate float64
	// Seed seeds the link's private RNG.
	Seed int64
}

// Link is a unidirectional fiber. Items are serialized at the link rate and
// delivered to the destination endpoint in order.
type Link struct {
	eng     *sim.Engine
	name    string
	dst     Endpoint
	lastEnd sim.Time // when the previous item finishes serializing

	rng *rand.Rand
	err ErrorModel

	// down simulates a severed or dark fiber: items are serialized by the
	// sender as usual (the transmitter cannot tell) but never delivered.
	down bool

	// inflight holds the items on the wire, oldest first. Arrivals on one
	// link are FIFO — each starts no earlier than the previous one ends
	// and propagation is fixed — so every arrival event delivers the
	// oldest item, and Send schedules the one method value deliverFn
	// (bound once) instead of a closure.
	inflight  sim.FIFO[*Item]
	deliverFn func()

	// creditReturn is the flow-control back-channel (paper §4.2.3): it
	// restores the sender's ready bit (see ReturnCredit).
	creditReturn func()

	// Stats.
	items  int64
	bytes  int64
	errors int64
	drops  int64
}

// NewLink creates a link delivering into dst with no error injection.
func NewLink(eng *sim.Engine, name string, dst Endpoint) *Link {
	l := &Link{eng: eng, name: name, dst: dst}
	l.deliverFn = l.deliver
	return l
}

// SetCreditReturn wires the back-channel: fn restores the ready bit of the
// device transmitting on this link.
func (l *Link) SetCreditReturn(fn func()) { l.creditReturn = fn }

// ReturnCredit hands one packet's ready credit back to the sender: the
// receiver drained or discarded it, or a dark fiber swallowed it.
func (l *Link) ReturnCredit() {
	if l.creditReturn != nil {
		l.creditReturn()
	}
}

// SetErrorModel enables fault injection.
func (l *Link) SetErrorModel(m ErrorModel) {
	l.err = m
	l.rng = rand.New(rand.NewSource(m.Seed))
}

// Model returns the current error model (fault injectors save it before a
// corruption burst and restore it after).
func (l *Link) Model() ErrorModel { return l.err }

// SetDown marks the fiber severed (true) or repaired (false). While down,
// transmitters serialize onto the link normally — the hardware cannot sense
// a dark fiber — but nothing arrives at the far end. Fault injectors use
// this for link-failure scenarios; the datalink's liveness probing is the
// detection path.
func (l *Link) SetDown(down bool) { l.down = down }

// Drops returns the number of items lost to a severed fiber.
func (l *Link) Drops() int64 { return l.drops }

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Dst returns the receiving endpoint.
func (l *Link) Dst() Endpoint { return l.dst }

// Items returns the number of items sent.
func (l *Link) Items() int64 { return l.items }

// BytesSent returns the number of bytes serialized onto the link.
func (l *Link) BytesSent() int64 { return l.bytes }

// ErrorsInjected returns the number of items damaged by the error model.
func (l *Link) ErrorsInjected() int64 { return l.errors }

// BusyUntil returns the time at which the link finishes serializing
// everything submitted so far.
func (l *Link) BusyUntil() sim.Time { return l.lastEnd }

// Send serializes the item onto the link, beginning no earlier than
// `earliest` (and no earlier than the link is free), and schedules delivery
// at the destination. It returns the time serialization starts.
//
// Send may be called from event or process context.
func (l *Link) Send(it *Item, earliest sim.Time) sim.Time {
	start := earliest
	if now := l.eng.Now(); start < now {
		start = now
	}
	if start < l.lastEnd {
		start = l.lastEnd
	}
	tx := sim.Time(it.Bytes()) * ByteTime
	l.lastEnd = start + tx
	l.items++
	l.bytes += int64(it.Bytes())

	if l.down {
		// Severed fiber: the bytes leave the transmitter and vanish. A
		// lost packet will never drain, so its credit comes back now.
		l.drops++
		if it.Kind == KindPacket {
			l.ReturnCredit()
		}
		return start
	}
	l.damage(it)

	arrival := start + DefaultPropagation
	if it.Span != nil {
		// One span per wire hop: serialization start to last-byte arrival.
		it.Span.ChildAt(start, trace.LayerFiber, l.name, "tx").EndAt(arrival + tx)
	}
	it.Start = arrival
	l.inflight.Push(it)
	l.eng.At(arrival, l.deliverFn)
	return start
}

// deliver hands the oldest in-flight item to the destination.
func (l *Link) deliver() {
	l.dst.Receive(l.inflight.Pop())
}

// damage applies the error model to an item in place. Packet payloads are
// copied before flipping bits so the sender's buffer is never mutated.
func (l *Link) damage(it *Item) {
	if l.rng == nil || l.err.BitErrorRate == 0 {
		return
	}
	p := l.err.BitErrorRate * float64(it.Bytes())
	if p > 1 {
		p = 1
	}
	if l.rng.Float64() >= p {
		return
	}
	l.errors++
	// Half of damage events are TAXI code violations (framing errors,
	// detected in hardware); the rest silently corrupt payload bits.
	if it.Kind != KindPacket || l.rng.Intn(2) == 0 {
		it.FrameError = true
		return
	}
	payload := make([]byte, len(it.Payload))
	copy(payload, it.Payload)
	if len(payload) > 0 {
		i := l.rng.Intn(len(payload))
		payload[i] ^= 1 << uint(l.rng.Intn(8))
	}
	it.Payload = payload
	it.Corrupt = true
}
