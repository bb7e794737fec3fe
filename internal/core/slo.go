package core

import (
	"sort"

	"repro/internal/hub"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// SLO-engine assembly: the engine itself lives in internal/obs/slo and
// sees only outcome tuples; this file wires it into a System — the
// transport outcome hooks, the flight recorder, per-objective metrics, and
// the diagnosis-bundle builder that can see the tracer, flow table, and
// weathermap the engine cannot.

// kindProto maps an SLO operation kind to the wire protocol byte its root
// message spans are tagged with (transport sendWire stamps wire[0]).
func kindProto(k slo.OpKind) byte {
	switch k {
	case slo.KindReqResp:
		return byte(transport.ProtoRequest)
	case slo.KindStream:
		return byte(transport.ProtoStream)
	case slo.KindVMTP:
		return byte(transport.ProtoVSend)
	}
	return 0
}

// sloTailConfig derives tail-based span sampling from the objectives: root
// message spans whose protocol is covered by an objective are retained when
// their latency reaches the objective's bound (the tightest bound wins per
// protocol), plus a 1-in-DefaultTailHeadEvery head sample so the baseline
// stays observable.
func sloTailConfig(sp slo.Params) trace.TailConfig {
	cfg := trace.TailConfig{
		HeadEvery: trace.DefaultTailHeadEvery,
		TagBounds: make(map[uint8]sim.Time),
	}
	for _, o := range sp.Objectives {
		tag := kindProto(o.Kind)
		if b, ok := cfg.TagBounds[tag]; !ok || (o.LatencyBound > 0 && o.LatencyBound < b) {
			cfg.TagBounds[tag] = o.LatencyBound
		}
	}
	return cfg
}

// buildSLO arms the SLO engine that buildStacks created and handed to
// every CAB's kernel (the transports' outcome hooks): alert notes into the
// flight recorder, slo.* metrics, and the diagnosis bundler. Called from
// buildTelemetry; a params set with no objectives has no engine.
func buildSLO(s *System) {
	p := s.Params
	e := s.SLO
	if e == nil {
		return
	}
	e.SetFlightRecorder(s.FR)
	e.SetBundler(func(a slo.Alert) *slo.Bundle { return buildBundle(s, e, a) })
	if s.Reg != nil {
		s.Reg.Func("slo.alerts", func() float64 { return float64(e.AlertCount()) })
		for i := range p.SLO.Objectives {
			i := i
			name := "slo." + p.SLO.Objectives[i].Name
			stat := func() slo.ObjectiveStatus { return e.Status()[i] }
			s.Reg.Func(name+".ops", func() float64 { return float64(stat().Ops) })
			s.Reg.Func(name+".breaches", func() float64 { return float64(stat().Breaches) })
			s.Reg.Func(name+".errors", func() float64 { return float64(stat().Errors) })
			s.Reg.Func(name+".burn_fast", func() float64 { return stat().BurnFast })
			s.Reg.Func(name+".burn_slow", func() float64 { return stat().BurnSlow })
			s.Reg.Func(name+".quantile_ns", func() float64 { return float64(stat().QuantileEst) })
			s.Reg.Func(name+".budget_used", func() float64 { return stat().BudgetUsed })
			s.Reg.Func(name+".alerts", func() float64 { return float64(stat().Alerts) })
		}
	}
	e.Start()
}

// Bundle capture bounds: enough evidence to diagnose, small enough to dump
// on every alert.
const (
	bundleTraces = 3
	bundleFlows  = 5
)

// buildBundle captures a diagnosis bundle at alert time. Everything here
// is read-only against the simulation — capturing a bundle cannot perturb
// an armed run — and every walk is in deterministic order.
func buildBundle(s *System, e *slo.Engine, a slo.Alert) *slo.Bundle {
	b := &slo.Bundle{At: a.At, Alert: a, Objectives: e.Status()}

	// The hottest weathermap port: deepest input queue now, peak
	// occupancy as the tie-break (ports walk HUBs-then-ports ascending).
	for _, pw := range s.Weathermap().Ports {
		if pw.QueueBytes > b.HotPort.QueueBytes ||
			(pw.QueueBytes == b.HotPort.QueueBytes && pw.QueuePeak > b.HotPort.HighWater) {
			b.HotPort = slo.BundlePort{Name: pw.Name, QueueBytes: pw.QueueBytes, HighWater: pw.QueuePeak}
		}
	}

	for _, r := range s.Flows.Records() {
		if len(b.TopFlows) >= bundleFlows {
			break
		}
		b.TopFlows = append(b.TopFlows, slo.BundleFlow{
			Src: r.Src, Dst: r.Dst, Proto: transport.Proto(r.Proto).String(),
			Count: r.Frames, Err: r.Retransmits,
		})
	}

	// Worst retained trace trees: closed roots by descending latency
	// (ties by id), decomposed with critical-path attribution. The
	// alerting objective's bound marks breach.
	var bound sim.Time
	for _, o := range s.Params.SLO.Objectives {
		if o.Name == a.Objective {
			bound = o.LatencyBound
		}
	}
	if s.Tr != nil {
		byRoot := trace.GroupByRoot(s.Tr.Spans())
		roots := make([]*trace.Span, 0, len(byRoot))
		for r := range byRoot {
			if r.Ended() {
				roots = append(roots, r)
			}
		}
		sort.Slice(roots, func(i, j int) bool {
			if roots[i].Duration() != roots[j].Duration() {
				return roots[i].Duration() > roots[j].Duration()
			}
			return roots[i].ID() < roots[j].ID()
		})
		if len(roots) > bundleTraces {
			roots = roots[:bundleTraces]
		}
		for _, r := range roots {
			spans := byRoot[r]
			bt := slo.BundleTrace{
				TraceID: r.ID(), Root: r.Name(), Comp: r.Comp(),
				Latency: r.Duration(), Errored: r.Errored(),
				Breached: bound > 0 && r.Duration() > bound,
			}
			for _, sp := range spans {
				bt.Spans = append(bt.Spans, slo.BundleSpan{
					ID: sp.ID(), Parent: sp.Parent().ID(),
					Layer: sp.Layer(), Comp: sp.Comp(), Name: sp.Name(),
					Start: sp.Start(), Duration: sp.Duration(),
				})
			}
			if pb := trace.CriticalPathIn(spans, r, hub.TransferLatency); pb != nil {
				for _, sl := range pb.Slices {
					bt.CriticalPath = append(bt.CriticalPath, slo.BundlePathStep{
						Layer: sl.Kind, Comp: sl.Comp, Name: sl.Kind, Duration: sl.Time,
					})
				}
			}
			b.Traces = append(b.Traces, bt)
		}
		b.Sampling = slo.BundleSampling{
			Roots:         s.Tr.TailRoots(),
			TreesKept:     s.Tr.TailKept(),
			TreesDropped:  s.Tr.TailDropped(),
			SpansRetained: len(s.Tr.Spans()),
			SpansDropped:  s.Tr.TailSpansDropped(),
		}
	}

	b.Exemplars = e.Exemplars(a.Objective)

	for _, ev := range s.FR.Events() {
		b.Flight = append(b.Flight, slo.BundleEvent{
			Seq: ev.Seq, At: ev.At, Kind: ev.Kind.String(), Where: ev.Where,
			A: ev.A, B: ev.B,
		})
	}
	return b
}
