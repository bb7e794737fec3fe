package trace

import (
	"sort"

	"repro/internal/sim"
)

// The span tracer follows one message end-to-end through the stack — node
// process -> VME/DMA -> CAB kernel thread -> transport -> datalink -> HUB
// port(s) -> fiber -> receive path — with parent/child causality and
// per-layer timing, so any send can be decomposed into the paper-style
// latency budget of §4.1/§6.2 (which the prototype could only produce for
// the crossbar: the instrumentation board saw the HUB, and the software
// layers were hand-timed).
//
// Convention (matching Recorder): a nil *Tracer is valid and records
// nothing, and every *Span method is nil-receiver safe, so components are
// instrumented unconditionally and the untraced hot path stays
// allocation-free.

// Layer names used by the built-in instrumentation. Spans are grouped by
// layer when building latency-breakdown tables.
const (
	LayerApp       = "app"       // application / Nectarine
	LayerColl      = "coll"      // collective-communication subsystem
	LayerNode      = "node"      // node process software
	LayerVME       = "vme"       // VME bus transfers
	LayerKernel    = "kernel"    // CAB kernel (context switches)
	LayerTransport = "transport" // transport protocol processing
	LayerDatalink  = "datalink"  // datalink send/receive software
	LayerDMA       = "dma"       // CAB DMA channel transfers
	LayerHub       = "hub"       // HUB port/crossbar transit
	LayerFiber     = "fiber"     // fiber serialization + propagation
)

// Span is one timed interval attributed to a layer and component, with an
// optional parent forming a causality tree rooted at the originating send.
type Span struct {
	tr     *Tracer
	parent *Span

	id    uint64
	layer string
	comp  string // component, e.g. "cab0", "hub1.p3"
	name  string

	start sim.Time
	end   sim.Time
	ended bool

	// errFlag marks the tree anomalous (set on the root by MarkError);
	// the tail sampler always retains errored trees.
	errFlag bool
	// tag classifies a root span for per-class tail-sampling bounds (the
	// transport stamps the wire protocol byte; 0 = untagged).
	tag uint8
	// tailMark records the tail sampler's verdict on a root: 0 undecided,
	// tailKept retained, tailDropped discarded (late children follow it).
	tailMark int8
}

// ID returns the span's tracer-unique id (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Parent returns the parent span (nil for roots).
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// Root walks to the tree root (the originating send).
func (s *Span) Root() *Span {
	if s == nil {
		return nil
	}
	r := s
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// Layer returns the span's layer.
func (s *Span) Layer() string {
	if s == nil {
		return ""
	}
	return s.layer
}

// Comp returns the component the span is attributed to.
func (s *Span) Comp() string {
	if s == nil {
		return ""
	}
	return s.comp
}

// Name returns the span's operation name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time.
func (s *Span) Start() sim.Time {
	if s == nil {
		return 0
	}
	return s.start
}

// EndTime returns the span's end time (its start if still open).
func (s *Span) EndTime() sim.Time {
	if s == nil {
		return 0
	}
	if !s.ended {
		return s.start
	}
	return s.end
}

// Ended reports whether the span was closed.
func (s *Span) Ended() bool { return s != nil && s.ended }

// Duration returns end-start (0 while open).
func (s *Span) Duration() sim.Time {
	if s == nil || !s.ended {
		return 0
	}
	return s.end - s.start
}

// End closes the span at the current simulated time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.tr.eng.Now())
}

// EndAt closes the span at t (which may be in the simulated future: hardware
// pipelines know their completion time when the transfer starts). Closing an
// already-closed span extends it if t is later. The first close of a root
// span is the tail sampler's decision point: the buffered tree is retained
// or discarded there (tail.go).
func (s *Span) EndAt(t sim.Time) {
	if s == nil {
		return
	}
	if t < s.start {
		t = s.start
	}
	first := !s.ended
	if first || t > s.end {
		s.end = t
		s.ended = true
	}
	if first && s.parent == nil && s.tr != nil && s.tr.tail != nil {
		s.tr.tailDecide(s)
	}
}

// MarkError flags the span's tree as anomalous (a drop, decode failure, or
// protocol error happened somewhere along it). The flag lives on the root;
// the tail sampler always retains errored trees that are still undecided.
func (s *Span) MarkError() {
	if s == nil {
		return
	}
	s.Root().errFlag = true
}

// Errored reports whether the span's tree was marked anomalous.
func (s *Span) Errored() bool { return s != nil && s.Root().errFlag }

// SetTag classifies the span for per-class tail-sampling bounds (the
// transport stamps root message spans with the wire protocol byte).
func (s *Span) SetTag(tag uint8) {
	if s == nil {
		return
	}
	s.tag = tag
}

// Child opens a sub-span starting now. A nil receiver yields a nil child,
// so causality chains cost nothing when tracing is off.
func (s *Span) Child(layer, comp, name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(s, layer, comp, name, s.tr.eng.Now())
}

// ChildAt opens a sub-span with an explicit start time (e.g. an item's
// first-byte arrival, which precedes the event that processes it).
func (s *Span) ChildAt(at sim.Time, layer, comp, name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(s, layer, comp, name, at)
}

// Tracer collects spans in creation order. A nil *Tracer is valid and
// records nothing. With tail-based sampling enabled (EnableTailSampling),
// spans buffer per tree until the root closes, and only anomalous or
// head-sampled trees are retained.
type Tracer struct {
	eng     *sim.Engine
	limit   int
	nextID  uint64
	spans   []*Span
	dropped int64

	// tail is the tail-sampling state (tail.go); nil when disabled — the
	// default, in which every span is retained up to limit.
	tail *tailState
}

// NewTracer returns a tracer bound to the engine. limit bounds retained
// spans (0 = unlimited); spans beyond the limit are counted but not
// retained, and their children attach to the nearest retained ancestor
// context (they come back nil).
func NewTracer(eng *sim.Engine, limit int) *Tracer {
	return &Tracer{eng: eng, limit: limit}
}

// Start opens a root span (parent nil) or a child of parent, starting now.
func (t *Tracer) Start(parent *Span, layer, comp, name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(parent, layer, comp, name, t.eng.Now())
}

// StartAt is Start with an explicit start time.
func (t *Tracer) StartAt(parent *Span, at sim.Time, layer, comp, name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(parent, layer, comp, name, at)
}

func (t *Tracer) start(parent *Span, layer, comp, name string, at sim.Time) *Span {
	if t.tail == nil && t.limit > 0 && len(t.spans) >= t.limit {
		t.dropped++
		return nil
	}
	t.nextID++
	s := &Span{tr: t, parent: parent, id: t.nextID, layer: layer, comp: comp, name: name, start: at}
	if t.tail != nil {
		t.tailAdmit(s)
	} else {
		t.spans = append(t.spans, s)
	}
	return s
}

// retain appends a span to the retained set, honoring the limit.
func (t *Tracer) retain(s *Span) {
	if t.limit > 0 && len(t.spans) >= t.limit {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// Spans returns all retained spans in creation order.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Dropped returns how many spans were not retained because of the limit.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Tree returns root and every retained descendant of root, in creation
// order.
func (t *Tracer) Tree(root *Span) []*Span {
	if t == nil || root == nil {
		return nil
	}
	var out []*Span
	for _, s := range t.spans {
		for a := s; a != nil; a = a.parent {
			if a == root {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// Roots returns the retained root spans in creation order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	var out []*Span
	for _, s := range t.spans {
		if s.parent == nil {
			out = append(out, s)
		}
	}
	return out
}

// LayerStat is one row of a latency breakdown.
type LayerStat struct {
	Layer string
	Spans int
	// Total is the sum of span durations in the layer (overlapping spans
	// in one layer are double-counted: it is attribution, not wall time).
	Total sim.Time
	// Busy is the merged-union length of the layer's span intervals.
	Busy sim.Time
}

// Breakdown groups spans by layer. Rows are sorted by descending Total,
// ties broken by layer name, so output is deterministic.
func Breakdown(spans []*Span) []LayerStat {
	byLayer := make(map[string]*LayerStat)
	order := []string{}
	perLayer := make(map[string][]*Span)
	for _, s := range spans {
		if !s.Ended() {
			continue
		}
		st, ok := byLayer[s.layer]
		if !ok {
			st = &LayerStat{Layer: s.layer}
			byLayer[s.layer] = st
			order = append(order, s.layer)
		}
		st.Spans++
		st.Total += s.Duration()
		perLayer[s.layer] = append(perLayer[s.layer], s)
	}
	out := make([]LayerStat, 0, len(order))
	for _, l := range order {
		st := byLayer[l]
		st.Busy = Union(perLayer[l])
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// Union returns the total length of the union of the spans' [start, end)
// intervals — the time at least one of them was active.
func Union(spans []*Span) sim.Time {
	type iv struct{ a, b sim.Time }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		if s.Ended() && s.end > s.start {
			ivs = append(ivs, iv{s.start, s.end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].a != ivs[j].a {
			return ivs[i].a < ivs[j].a
		}
		return ivs[i].b < ivs[j].b
	})
	var total sim.Time
	var curA, curB sim.Time
	active := false
	for _, v := range ivs {
		if !active {
			curA, curB, active = v.a, v.b, true
			continue
		}
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	if active {
		total += curB - curA
	}
	return total
}
