package trace

import (
	"sort"

	"repro/internal/sim"
)

// Critical-path attribution: a post-processor over recorded span trees that
// decomposes a message's end-to-end latency into per-hop queueing vs
// service vs propagation vs software, and aggregates "where did the p99
// go" tables across a run. The paper could only produce this decomposition
// for the crossbar (the instrumentation board saw the HUB; the software
// layers were hand-timed); with full span trees it falls out of the data.

// Path attribution kinds.
const (
	PathQueue       = "queue"       // waiting in a HUB input queue for the crossbar
	PathService     = "service"     // crossbar transit (the hop's fixed service time)
	PathPropagation = "propagation" // fiber serialization + propagation
	PathSoftware    = "software"    // CPU time in a software layer
)

// PathSlice is one attribution component of a message's latency: a HUB
// port's queueing or service, a fiber's propagation, or a software layer's
// busy time.
type PathSlice struct {
	Comp string   // "hub4.p14" for hub hops and fibers; layer name for software
	Kind string   // PathQueue | PathService | PathPropagation | PathSoftware
	Time sim.Time // attributed time
}

// PathBreakdown is the decomposition of one message root span.
type PathBreakdown struct {
	Root  *Span
	Total sim.Time // the root span's end-to-end duration
	// Slices are the attribution components, largest first (ties by comp
	// then kind). Components may overlap in wall time (a DMA overlaps its
	// fiber, hops pipeline): this is attribution, not a timeline.
	Slices []PathSlice
	// Per-kind totals.
	Queue, Service, Propagation, Software sim.Time
}

// MaxQueue returns the slice with the most queueing time (zero slice when
// the message never queued) — "the congested port".
func (p *PathBreakdown) MaxQueue() PathSlice {
	for _, s := range p.Slices {
		if s.Kind == PathQueue {
			return s
		}
	}
	return PathSlice{}
}

// CriticalPath decomposes root's end-to-end latency from its span tree.
// hubService is the per-hop crossbar service time (hub.TransferLatency):
// each LayerHub span covers first-byte arrival at the input queue to start
// of packet leaving the output register, so duration beyond hubService is
// queueing at that port. LayerFiber spans are propagation; every other
// layer's spans are software, attributed per layer by interval union (so
// nested sub-spans are not double-counted).
func CriticalPath(tr *Tracer, root *Span, hubService sim.Time) *PathBreakdown {
	if tr == nil || root == nil {
		return nil
	}
	return criticalPath(tr.Tree(root), root, hubService)
}

func criticalPath(spans []*Span, root *Span, hubService sim.Time) *PathBreakdown {
	pb := &PathBreakdown{Root: root, Total: root.Duration()}
	type ck struct{ comp, kind string }
	acc := make(map[ck]sim.Time)
	order := []ck{}
	add := func(comp, kind string, t sim.Time) {
		if t <= 0 {
			return
		}
		k := ck{comp, kind}
		if _, ok := acc[k]; !ok {
			order = append(order, k)
		}
		acc[k] += t
	}
	soft := make(map[string][]*Span)
	softOrder := []string{}
	for _, s := range spans {
		if s == root || !s.Ended() {
			continue
		}
		switch s.Layer() {
		case LayerHub:
			dur := s.Duration()
			svc := hubService
			if dur < svc {
				svc = dur
			}
			add(s.Comp(), PathService, svc)
			add(s.Comp(), PathQueue, dur-svc)
			pb.Service += svc
			pb.Queue += dur - svc
		case LayerFiber:
			add(s.Comp(), PathPropagation, s.Duration())
			pb.Propagation += s.Duration()
		default:
			if _, ok := soft[s.Layer()]; !ok {
				softOrder = append(softOrder, s.Layer())
			}
			soft[s.Layer()] = append(soft[s.Layer()], s)
		}
	}
	for _, l := range softOrder {
		busy := Union(soft[l])
		add(l, PathSoftware, busy)
		pb.Software += busy
	}
	pb.Slices = make([]PathSlice, 0, len(order))
	for _, k := range order {
		pb.Slices = append(pb.Slices, PathSlice{Comp: k.comp, Kind: k.kind, Time: acc[k]})
	}
	sortSlices(pb.Slices)
	return pb
}

// sortSlices orders attribution slices largest first, ties by comp then
// kind, so output is deterministic.
func sortSlices(s []PathSlice) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Time != s[j].Time {
			return s[i].Time > s[j].Time
		}
		if s[i].Comp != s[j].Comp {
			return s[i].Comp < s[j].Comp
		}
		return s[i].Kind < s[j].Kind
	})
}

// GroupByRoot buckets spans by their root, preserving creation order within
// each bucket. Feed it Tracer.Spans() once instead of calling Tree per
// root (Tree is quadratic across a whole run's roots).
func GroupByRoot(spans []*Span) map[*Span][]*Span {
	out := make(map[*Span][]*Span)
	for _, s := range spans {
		out[s.Root()] = append(out[s.Root()], s)
	}
	return out
}

// CriticalPathIn is CriticalPath over a pre-grouped span bucket (see
// GroupByRoot).
func CriticalPathIn(spans []*Span, root *Span, hubService sim.Time) *PathBreakdown {
	if root == nil {
		return nil
	}
	return criticalPath(spans, root, hubService)
}

// QuantileRoot returns the root whose duration is the nearest-rank
// q-quantile among the ended roots (q clamped to [0,1]; nil if none are
// ended). Duration ties break by span ID, so the pick is deterministic.
func QuantileRoot(roots []*Span, q float64) *Span {
	ended := make([]*Span, 0, len(roots))
	for _, r := range roots {
		if r.Ended() {
			ended = append(ended, r)
		}
	}
	if len(ended) == 0 {
		return nil
	}
	sort.Slice(ended, func(i, j int) bool {
		if ended[i].Duration() != ended[j].Duration() {
			return ended[i].Duration() < ended[j].Duration()
		}
		return ended[i].ID() < ended[j].ID()
	})
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q*float64(len(ended))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ended) {
		idx = len(ended) - 1
	}
	return ended[idx]
}
