package trace

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// EventKind classifies recorded events, mirroring what the prototype's
// instrumentation board could observe on the crossbar and controller.
type EventKind int

// Recorded event kinds.
const (
	EvConnOpen EventKind = iota // crossbar connection established
	EvConnClose
	EvConnRetry   // open attempt deferred (output busy / not ready)
	EvCommand     // command executed
	EvPacketIn    // packet entered an input queue
	EvPacketOut   // packet left through an output register
	EvPacketDrop  // packet discarded (overflow, disabled port, no conn)
	EvReply       // reply generated
	EvFrameError  // framing/corruption error detected
	EvLock        // lock acquired
	EvUnlock      // lock released
	EvUserDefined // free-form software event
)

var kindNames = map[EventKind]string{
	EvConnOpen:    "conn-open",
	EvConnClose:   "conn-close",
	EvConnRetry:   "conn-retry",
	EvCommand:     "command",
	EvPacketIn:    "packet-in",
	EvPacketOut:   "packet-out",
	EvPacketDrop:  "packet-drop",
	EvReply:       "reply",
	EvFrameError:  "frame-error",
	EvLock:        "lock",
	EvUnlock:      "unlock",
	EvUserDefined: "user",
}

// String returns the event kind name.
func (k EventKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Record is one recorded event.
type Record struct {
	At     sim.Time
	Kind   EventKind
	Where  string // component, e.g. "hub0.p3"
	Detail string
}

// Recorder is the simulated instrumentation board: an event log with
// per-kind counters. A nil *Recorder is valid and records nothing, so
// components can be instrumented unconditionally.
type Recorder struct {
	eng     *sim.Engine
	events  []Record
	counts  map[EventKind]int64
	limit   int   // maximum retained events
	dropped int64 // events not retained because the limit was hit
}

// NewRecorder returns a recorder bound to the engine. limit (positive)
// bounds the number of retained event records; counters are always exact.
func NewRecorder(eng *sim.Engine, limit int) *Recorder {
	return &Recorder{eng: eng, counts: make(map[EventKind]int64), limit: limit}
}

// Record logs an event at the current simulated time.
func (r *Recorder) Record(kind EventKind, where, format string, args ...interface{}) {
	if r == nil {
		return
	}
	r.counts[kind]++
	if len(r.events) >= r.limit {
		r.dropped++
		return
	}
	r.events = append(r.events, Record{
		At:     r.eng.Now(),
		Kind:   kind,
		Where:  where,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Count returns the exact number of events of the given kind.
func (r *Recorder) Count(kind EventKind) int64 {
	if r == nil {
		return 0
	}
	return r.counts[kind]
}

// Dropped returns how many events were not retained because the limit was
// hit (counters stay exact regardless).
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the retained event records in time order.
func (r *Recorder) Events() []Record {
	if r == nil {
		return nil
	}
	return r.events
}

// Dump renders the retained events, one per line.
func (r *Recorder) Dump() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, ev := range r.events {
		fmt.Fprintf(&b, "%12v %-12s %-12s %s\n", ev.At, ev.Kind, ev.Where, ev.Detail)
	}
	if r.dropped > 0 {
		fmt.Fprintf(&b, "… %d more events not retained (limit %d)\n", r.dropped, r.limit)
	}
	return b.String()
}
