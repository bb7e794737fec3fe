package obs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// Kind classifies a flight-recorder event.
type Kind uint8

// Flight-recorder event kinds. Where and the A/B payloads are
// kind-specific; the table in kindInfo documents each.
const (
	FNone            Kind = iota
	FSend                 // datalink packet send        A=dst box (-1 multicast)  B=bytes
	FRecv                 // datalink packet receive     B=bytes
	FDrop                 // hub port drop               A=port     B=bytes
	FLinkDown             // topology link failed        A=from     B=to
	FLinkUp               // topology link restored      A=from     B=to
	FOpenTimeout          // circuit open timeout        A=attempt  B=replies missing
	FRTOExpiry            // go-back-N RTO expiry        A=peer     B=outstanding
	FRetransmit           // request retransmission      A=peer     B=attempt
	FPeerDead             // transport declared peer dead    A=peer
	FPeerAlive            // transport saw dead peer revive  A=peer
	FCrash                // CAB crashed                 A=box
	FReboot               // CAB rebooted                A=box
	FInject               // fault action injected       A=step index
	FStall                // watchdog saw no progress    A=in-flight ops  B=progress count
	FCollRetrans          // collective multicast retransmit  A=loser rank  B=seq
	FCollStraggler        // collective ack-wait timed out    A=missing rank B=seq
	FCongestion           // hub input queue crossed high water  A=port  B=queue bytes
	FShed                 // overload control shed an op     A=peer  B=class
	FDeadlineExpired      // deadline-carrying work expired  A=peer  B=class
	FBreakerTrip          // circuit breaker opened          A=peer  B=trip count
	FBreakerClose         // circuit breaker closed          A=peer
	FSLOAlert             // SLO burn-rate alert fired       A=fast burn x100  B=window quantile ns
	FSLOClear             // SLO burn-rate alert cleared     A=fast burn x100
	FCombine              // HUB combining slot completed    A=slot tag  B=seq
	FCombTimeout          // HUB combining slot flushed partial  A=slot tag  B=contributors present

	// The HUB instrumentation board's crossbar events (paper §4.1). Their
	// operands are packed by package hub, whose WriteLog renders them.
	FCommand    // HUB command executed
	FConnOpen   // crossbar connection established
	FConnClose  // crossbar connection closed
	FConnRetry  // open deferred or abandoned (output busy, failed, reset)
	FPacketOut  // packet left through an output register
	FPacketDrop // packet or command discarded at a port
	FReply      // command reply generated
	FFrameError // damaged command lost at a port
	FLock       // HUB lock acquired
	FUnlock     // HUB lock released
	kindCount
)

var kindNames = [kindCount]string{
	FNone:            "none",
	FSend:            "send",
	FRecv:            "recv",
	FDrop:            "drop",
	FLinkDown:        "link-down",
	FLinkUp:          "link-up",
	FOpenTimeout:     "open-timeout",
	FRTOExpiry:       "rto-expiry",
	FRetransmit:      "retransmit",
	FPeerDead:        "peer-dead",
	FPeerAlive:       "peer-alive",
	FCrash:           "crash",
	FReboot:          "reboot",
	FInject:          "inject",
	FStall:           "stall",
	FCollRetrans:     "coll-retrans",
	FCollStraggler:   "coll-straggler",
	FCongestion:      "congestion",
	FShed:            "shed",
	FDeadlineExpired: "deadline-expired",
	FBreakerTrip:     "breaker-trip",
	FBreakerClose:    "breaker-close",
	FSLOAlert:        "slo-alert",
	FSLOClear:        "slo-clear",
	FCombine:         "combine",
	FCombTimeout:     "comb-timeout",
	FCommand:         "command",
	FConnOpen:        "conn-open",
	FConnClose:       "conn-close",
	FConnRetry:       "conn-retry",
	FPacketOut:       "packet-out",
	FPacketDrop:      "packet-drop",
	FReply:           "reply",
	FFrameError:      "frame-error",
	FLock:            "lock",
	FUnlock:          "unlock",
}

// String returns the kind's display name.
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder entry. Where is a component label (a static
// string at call sites, so recording never allocates); A and B are
// kind-specific payloads (see the Kind constants).
type Event struct {
	At    sim.Time
	Kind  Kind
	Seq   uint64 // monotonically increasing record number
	A, B  int64
	Where string
}

// DefaultFlightEvents is the ring capacity used when a caller passes
// capacity <= 0.
const DefaultFlightEvents = 512

// FlightRecorder keeps a bounded ring of the most recent structured
// events, and exact counts of every event by kind. The ring is
// preallocated and entries hold only scalars plus static strings, so Note
// is zero-alloc: the recorder can stay armed through a full chaos run
// without touching the allocator or perturbing simulated time. A System
// has one across every layer, and the HUBs' instrumentation board is a
// second instance.
//
// A nil *FlightRecorder is valid: Note records nothing, so every layer
// can call it unconditionally.
type FlightRecorder struct {
	eng    *sim.Engine
	ring   []Event
	next   int
	total  uint64
	counts [kindCount]uint64
}

// NewFlightRecorder returns a recorder retaining the last capacity events
// (DefaultFlightEvents if capacity <= 0).
func NewFlightRecorder(eng *sim.Engine, capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{eng: eng, ring: make([]Event, capacity)}
}

// Note records one event. Where must be a static or long-lived string;
// the recorder stores it by reference.
func (f *FlightRecorder) Note(kind Kind, where string, a, b int64) {
	if f == nil {
		return
	}
	f.total++
	f.counts[kind]++
	f.ring[f.next] = Event{At: f.eng.Now(), Kind: kind, Seq: f.total, A: a, B: b, Where: where}
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
	}
}

// Total returns how many events have ever been recorded (including ones
// the ring has since overwritten).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.total
}

// Count returns how many events of kind have ever been recorded.
func (f *FlightRecorder) Count(kind Kind) uint64 {
	if f == nil {
		return 0
	}
	return f.counts[kind]
}

// Dropped returns how many recorded events the ring no longer holds.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	return f.total - min(f.total, uint64(len(f.ring)))
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Events returns the retained events oldest-first. It allocates a fresh
// slice; call it at dump time, not on hot paths.
func (f *FlightRecorder) Events() []Event {
	if f == nil || f.total == 0 {
		return nil
	}
	n := len(f.ring)
	if f.total < uint64(n) {
		n = int(f.total)
	}
	out := make([]Event, 0, n)
	start := f.next - n
	if start < 0 {
		start += len(f.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, f.ring[(start+i)%len(f.ring)])
	}
	return out
}

// retained tallies retained events by kind.
func (f *FlightRecorder) retained() [kindCount]int {
	var c [kindCount]int
	for _, ev := range f.Events() {
		c[ev.Kind]++
	}
	return c
}

// PostMortem renders a human-readable dump: a header with totals, the
// link-state timeline (every link-down/link-up retained), a per-kind
// tally, and the full retained event log, oldest first.
func (f *FlightRecorder) PostMortem() string {
	var b strings.Builder
	f.Dump(&b)
	return b.String()
}

// Dump writes the post-mortem to w. A nil recorder writes a one-line
// notice so callers on failure paths never need a nil check.
func (f *FlightRecorder) Dump(w io.Writer) {
	if f == nil {
		fmt.Fprintln(w, "flight recorder: not armed")
		return
	}
	evs := f.Events()
	fmt.Fprintf(w, "flight recorder post-mortem at %v: %d events recorded, last %d retained\n",
		f.eng.Now(), f.total, len(evs))

	// Link-state timeline: every retained up/down transition in order.
	var links []Event
	for _, ev := range evs {
		if ev.Kind == FLinkDown || ev.Kind == FLinkUp {
			links = append(links, ev)
		}
	}
	if len(links) > 0 {
		fmt.Fprintf(w, "\nlink-state timeline (%d transitions):\n", len(links))
		for _, ev := range links {
			arrow := "DOWN"
			if ev.Kind == FLinkUp {
				arrow = "UP"
			}
			fmt.Fprintf(w, "  %12v  %-10s link %d->%d %s\n", ev.At, ev.Where, ev.A, ev.B, arrow)
		}
	}

	c := f.retained()
	fmt.Fprintf(w, "\nevent tally:\n")
	for k := Kind(1); k < kindCount; k++ {
		if c[k] > 0 {
			fmt.Fprintf(w, "  %-14s %d\n", kindNames[k], c[k])
		}
	}

	fmt.Fprintf(w, "\nlast %d events (oldest first):\n", len(evs))
	for _, ev := range evs {
		fmt.Fprintf(w, "  #%-6d %12v  %-13s %-22s a=%-6d b=%d\n",
			ev.Seq, ev.At, ev.Kind, ev.Where, ev.A, ev.B)
	}
}
