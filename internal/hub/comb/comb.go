// Package comb is the HUB's combining engine: the in-network computing
// layer that merges combinable commands at the switch instead of at the
// endpoints (ROADMAP "in-network computing"; NYU Ultracomputer lineage —
// fetch-and-add combining in the network — plus the NIC-collective
// ack-aggregation protocol shape).
//
// The engine keeps a bounded table of combining slots. Each slot is keyed
// by (tag, lane, seq) — tag is a system-unique group-instance id, lane an
// 8-byte element index, seq the collective's sequence number — and merges
// the operands of an announced fan-in. When the last contributor arrives
// the slot resolves fully: every contributor receives the combined value
// over the HUB's reverse channel. A straggler timeout (or deterministic
// eviction when the table is full) flushes a slot partially: the present
// contributors get a "not combined" verdict and fall back to their
// endpoint algorithm. Because HUB replies are never lost, a slot is
// all-or-nothing per contributor set — all members that reached the slot
// agree on combined-vs-fallback without any extra agreement round.
package comb

import (
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Defaults.
const (
	// DefaultSlots bounds concurrent combining slots per HUB.
	DefaultSlots = 64
	// DefaultTimeout is the straggler timeout: how long a slot waits for
	// its remaining contributors before flushing partial.
	DefaultTimeout = 200 * sim.Microsecond
)

// Params configures an engine.
type Params struct {
	// Slots bounds the table (DefaultSlots when <= 0).
	Slots int
	// Timeout is the straggler timeout (DefaultTimeout when <= 0).
	Timeout sim.Time
}

func (p Params) normalize() Params {
	if p.Slots <= 0 {
		p.Slots = DefaultSlots
	}
	if p.Timeout <= 0 {
		p.Timeout = DefaultTimeout
	}
	return p
}

// OpKind is a slot's combining operation.
type OpKind uint8

// Combining operations over one 8-byte lane.
const (
	OpSum     OpKind = iota // int64 sum (fetch-and-add)
	OpMax                   // int64 max
	OpFSum                  // float64 sum (operand is Float64bits)
	OpBarrier               // presence only; value unused
)

// Key identifies a combining slot.
type Key struct {
	Tag  uint16 // system-unique group-instance tag
	Lane byte   // 8-byte element index within the payload
	Seq  uint32 // collective sequence number
}

// Result is the verdict delivered to each contributor. Value is the
// group-wide combined value when Combined; meaningless otherwise (the
// contributor falls back using its own original operand).
type Result struct {
	Combined bool
	Value    uint64
}

// slot is one in-flight combine.
type slot struct {
	key     Key
	op      OpKind
	fanin   int
	value   uint64
	deliver []func(Result)
	gen     uint64 // guards the timeout closure against slot reuse
}

// Engine is one HUB's combining table. It is driven entirely from the
// simulation event loop (no locking).
type Engine struct {
	eng  *sim.Engine
	name string
	p    Params
	fr   *obs.FlightRecorder

	slots map[Key]*slot
	order []*slot           // creation order, for deterministic eviction
	water map[uint64]uint32 // (tag,lane) -> highest resolved seq
	gen   uint64

	// Counters (read via the funcs Instrument registers).
	contribs  int64 // operands accepted
	combines  int64 // slots resolved fully
	timeouts  int64 // slots flushed by the straggler timeout
	evictions int64 // slots flushed to make room
	lates     int64 // contributions arriving after their slot resolved
	mismatch  int64 // fan-in/op disagreements (slot flushed defensively)
}

// New creates an engine for the named HUB.
func New(eng *sim.Engine, name string, p Params) *Engine {
	return &Engine{
		eng:   eng,
		name:  name,
		p:     p.normalize(),
		slots: make(map[Key]*slot),
		water: make(map[uint64]uint32),
	}
}

// Timeout returns the straggler timeout the engine runs with.
func (e *Engine) Timeout() sim.Time { return e.p.Timeout }

// SlotsInUse returns the current table occupancy (sampler series).
func (e *Engine) SlotsInUse() float64 { return float64(len(e.slots)) }

// Instrument registers the engine's counters on reg under
// "<name>.comb." and arms FCombine/FCombTimeout notes on fr. Either may be
// nil; a nil registry registers nothing.
func (e *Engine) Instrument(reg *trace.Registry, fr *obs.FlightRecorder) {
	e.fr = fr
	if reg == nil {
		return
	}
	reg.Func(e.name+".comb.contribs", func() float64 { return float64(e.contribs) })
	reg.Func(e.name+".comb.combines", func() float64 { return float64(e.combines) })
	reg.Func(e.name+".comb.timeouts", func() float64 { return float64(e.timeouts) })
	reg.Func(e.name+".comb.evictions", func() float64 { return float64(e.evictions) })
	reg.Func(e.name+".comb.late", func() float64 { return float64(e.lates) })
	reg.Func(e.name+".comb.mismatch", func() float64 { return float64(e.mismatch) })
	reg.Func(e.name+".comb.slots_inuse", e.SlotsInUse)
}

// merge folds operand b into a under op.
func merge(op OpKind, a, b uint64) uint64 {
	switch op {
	case OpSum:
		return uint64(int64(a) + int64(b))
	case OpMax:
		if int64(b) > int64(a) {
			return b
		}
		return a
	case OpFSum:
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	default: // OpBarrier: presence only
		return 0
	}
}

func waterKey(k Key) uint64 { return uint64(k.Tag)<<8 | uint64(k.Lane) }

// Contribute folds one operand into the slot for key, creating the slot on
// first contact. fanin is the number of contributors the slot waits for;
// deliver is invoked exactly once — immediately for late or degenerate
// contributions, at slot resolution otherwise — with the verdict.
func (e *Engine) Contribute(op OpKind, key Key, fanin int, operand uint64, deliver func(Result)) {
	e.contribs++
	if w, ok := e.water[waterKey(key)]; ok && key.Seq <= w {
		// The slot already resolved (likely flushed partial before this
		// straggler arrived): an immediate lone verdict, never a re-merge.
		e.lates++
		deliver(Result{Combined: false})
		return
	}
	s, ok := e.slots[key]
	if !ok {
		if fanin <= 1 {
			// A lone local contributor is trivially combined.
			e.combines++
			e.setWater(key)
			deliver(Result{Combined: true, Value: operand})
			return
		}
		if len(e.order) >= e.p.Slots {
			e.evictOldest()
		}
		e.gen++
		s = &slot{key: key, op: op, fanin: fanin, value: operand, gen: e.gen}
		s.deliver = append(s.deliver, deliver)
		e.slots[key] = s
		e.order = append(e.order, s)
		gen := s.gen
		e.eng.After(e.p.Timeout, func() { e.timeout(key, gen) })
		return
	}
	if s.op != op || s.fanin != fanin {
		// Contributors disagree about the slot's shape (misconfigured
		// group): flush everyone, including this contributor, partial.
		e.mismatch++
		s.deliver = append(s.deliver, deliver)
		e.resolve(s, false)
		return
	}
	s.value = merge(op, s.value, operand)
	s.deliver = append(s.deliver, deliver)
	if len(s.deliver) >= s.fanin {
		e.combines++
		e.resolve(s, true)
	}
}

// setWater advances the (tag,lane) watermark to key.Seq.
func (e *Engine) setWater(key Key) {
	wk := waterKey(key)
	if w, ok := e.water[wk]; !ok || key.Seq > w {
		e.water[wk] = key.Seq
	}
}

// resolve frees the slot and delivers the verdict to every contributor.
func (e *Engine) resolve(s *slot, full bool) {
	delete(e.slots, s.key)
	for i, o := range e.order {
		if o == s {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	e.setWater(s.key)
	if full {
		e.fr.Note(obs.FCombine, e.name, int64(s.key.Tag), int64(s.key.Seq))
	} else {
		e.fr.Note(obs.FCombTimeout, e.name, int64(s.key.Tag), int64(len(s.deliver)))
	}
	res := Result{Combined: full, Value: s.value}
	for _, d := range s.deliver {
		d(res)
	}
}

// timeout flushes a slot whose stragglers never arrived.
func (e *Engine) timeout(key Key, gen uint64) {
	s, ok := e.slots[key]
	if !ok || s.gen != gen {
		return // slot resolved (or was evicted and the key reused)
	}
	e.timeouts++
	e.resolve(s, false)
}

// evictOldest flushes the oldest slot partial to make room. Creation order
// is event order, so eviction is deterministic.
func (e *Engine) evictOldest() {
	if len(e.order) == 0 {
		return
	}
	e.evictions++
	e.resolve(e.order[0], false)
}
