package exp

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// O3 — the SLO engine and tail-based span sampling under a congestion
// storm. Same shape as O2 (two blasters converge on a victim's HUB while a
// paced client runs request-response traffic through the congested port),
// but the run is long and mostly quiet: the storm is a short anomaly in
// the middle, which is exactly the regime tail sampling and burn-rate
// alerting are built for. The claims:
//
//	(a) invisible: the client's latency digest is byte-identical with the
//	    SLO engine + tail sampler armed and fully dark, and two armed runs
//	    produce byte-identical alert logs and diagnosis bundles;
//	(b) the storm fires exactly one burn-rate alert (and one clear) on the
//	    declared reqresp objective, inside the storm window;
//	(c) the alert's diagnosis bundle names a port on the storm HUB as the
//	    hottest, and retains at least one SLO-breaching trace tree with
//	    critical-path attribution, plus exemplars linking the latency
//	    sketch to retained traces;
//	(d) economical: tail sampling retains >= 20x fewer spans than full
//	    tracing of the same run.

const (
	o3Horizon = 120 * sim.Millisecond
	// o3Bound is the declared latency objective: comfortably above the
	// ~18us uncongested request RTT, comfortably below the ~175us RTT
	// through the storm-saturated port.
	o3Bound = 100 * sim.Microsecond
)

// o3HotSpot is O2's cast with a shorter storm: Mesh(2,2,3), client CAB 1,
// storm sources 9 and 10 converge on CAB 11 behind stormHub ("hub4").
var o3HotSpot = fault.HotSpot{
	Client: 1, Victim: 11, Every: 100 * sim.Microsecond,
	Srcs: []int{9, 10}, At: sim.Millisecond, Duration: 2 * sim.Millisecond, Size: 512,
}

// o3Mode selects the instrumentation level of one run.
type o3Mode int

const (
	o3Dark  o3Mode = iota // nothing armed
	o3Armed               // SLO engine + derived tail sampling
	o3Full                // full tracing, no sampling (the comparator)
)

type o3Outcome struct {
	digest   trace.Digest
	requests int

	alerts    []slo.Alert
	alertText string
	bundles   []*slo.Bundle
	status    []slo.ObjectiveStatus
	exemplars []slo.Exemplar

	spansRetained int
	tailRoots     int64
	tailKept      int64
	retainedRoots map[uint64]bool
}

func o3Params() slo.Params {
	return slo.Params{Objectives: []slo.Objective{{
		Name:         "reqresp-p99",
		Kind:         slo.KindReqResp,
		Class:        slo.AnyClass,
		Quantile:     0.99,
		LatencyBound: o3Bound,
		SuccessRate:  0.999,
		Window:       sim.Millisecond,
	}}}
}

// o3Run drives the scenario at one instrumentation level. The digest folds
// each client request's index, latency, and error state — any timing
// perturbation from the armed engine or sampler would change it.
func o3Run(mode o3Mode) o3Outcome {
	var opts []core.Option
	switch mode {
	case o3Armed:
		opts = append(opts, core.WithMetrics(), core.WithSLO(o3Params()))
	case o3Full:
		opts = append(opts, func(p *core.Params) { p.TraceSpans = 500000 })
	}
	sys := core.New(core.Mesh(2, 2, 3), opts...)

	run := fault.StartHotSpot(sys, o3HotSpot)
	sys.RunUntil(o3Horizon)
	sys.StopTelemetry()

	out := o3Outcome{digest: run.Digest, requests: run.Requests}
	if mode == o3Dark {
		return out
	}
	if sys.Tr != nil {
		out.spansRetained = len(sys.Tr.Spans())
		out.tailRoots = sys.Tr.TailRoots()
		out.tailKept = sys.Tr.TailKept()
		out.retainedRoots = make(map[uint64]bool)
		for _, r := range sys.Tr.Roots() {
			out.retainedRoots[r.ID()] = true
		}
	}
	if sys.SLO != nil {
		out.alerts = sys.SLO.Alerts()
		var b strings.Builder
		for _, a := range out.alerts {
			fmt.Fprintln(&b, a.String())
		}
		out.alertText = b.String()
		out.bundles = sys.SLO.Bundles()
		out.status = sys.SLO.Status()
		out.exemplars = sys.SLO.Exemplars("reqresp-p99")
	}
	return out
}

// O3SLOEngine runs the SLO-engine + tail-sampling experiment.
func O3SLOEngine() *Result {
	dark := o3Run(o3Dark)
	a := o3Run(o3Armed)
	b := o3Run(o3Armed)
	full := o3Run(o3Full)

	pass := true
	var notes []string
	fail := func(format string, args ...interface{}) {
		pass = false
		notes = append(notes, fmt.Sprintf(format, args...))
	}
	ok := func(format string, args ...interface{}) {
		notes = append(notes, fmt.Sprintf(format, args...))
	}

	// (a) The armed engine is invisible to the run and deterministic.
	if dark.digest != a.digest || dark.requests != a.requests {
		fail("SLO engine PERTURBED the run: digest %016x/%d requests dark vs %016x/%d armed",
			dark.digest, dark.requests, a.digest, a.requests)
	} else {
		ok("engine invisible: latency digest %016x over %d requests, armed and dark",
			a.digest, a.requests)
	}
	aBundle, bBundle := []byte("{}"), []byte("{}")
	if len(a.bundles) > 0 {
		aBundle = a.bundles[0].JSON()
	}
	if len(b.bundles) > 0 {
		bBundle = b.bundles[0].JSON()
	}
	if a.alertText != b.alertText {
		fail("alert stream NOT identical across two armed runs:\n%s\nvs\n%s", a.alertText, b.alertText)
	} else if !bytes.Equal(aBundle, bBundle) {
		fail("diagnosis bundle NOT byte-identical across two armed runs")
	} else {
		ok("replay deterministic: alert stream and diagnosis bundle (%d bytes) byte-identical", len(aBundle))
	}

	// (b) Exactly one burn-rate alert, inside the storm window, plus its
	// clear after the storm drains.
	var fires, clears []slo.Alert
	for _, al := range a.alerts {
		if al.Cleared {
			clears = append(clears, al)
		} else {
			fires = append(fires, al)
		}
	}
	switch {
	case len(fires) != 1:
		fail("expected exactly 1 burn-rate alert, got %d (%d clears): %s", len(fires), len(clears), a.alertText)
	case fires[0].Objective != "reqresp-p99":
		fail("alert fired on objective %q, want reqresp-p99", fires[0].Objective)
	case fires[0].At < o3HotSpot.At || fires[0].At > o3HotSpot.At+o3HotSpot.Duration+sim.Millisecond:
		fail("alert fired at %v, outside the storm window [%v, %v]",
			fires[0].At, o3HotSpot.At, o3HotSpot.At+o3HotSpot.Duration+sim.Millisecond)
	case len(clears) != 1 || clears[0].At <= fires[0].At:
		fail("expected exactly 1 clear after the alert, got %d: %s", len(clears), a.alertText)
	default:
		ok("storm fired exactly one alert: %s", fires[0].String())
		ok("and cleared after the storm drained: %s", clears[0].String())
	}

	// (c) The diagnosis bundle localizes the incident.
	if len(a.bundles) != 1 {
		fail("expected exactly 1 diagnosis bundle, got %d", len(a.bundles))
	} else {
		bd := a.bundles[0]
		if !strings.HasPrefix(bd.HotPort.Name, stormHub+".") {
			fail("bundle's hottest port %q is not on the storm hub %s", bd.HotPort.Name, stormHub)
		} else {
			ok("bundle fingers %s: %d bytes queued, peak %d", bd.HotPort.Name, bd.HotPort.QueueBytes, bd.HotPort.HighWater)
		}
		breaching := 0
		withPath := 0
		for _, bt := range bd.Traces {
			if bt.Breached {
				breaching++
			}
			if len(bt.CriticalPath) > 0 {
				withPath++
			}
		}
		if breaching == 0 {
			fail("bundle retained no SLO-breaching trace tree (%d traces)", len(bd.Traces))
		} else if withPath == 0 {
			fail("bundle traces carry no critical-path attribution")
		} else {
			ok("bundle retains %d traces (%d breaching, worst %v) with critical-path attribution",
				len(bd.Traces), breaching, bd.Traces[0].Latency)
		}
	}
	linked := 0
	for _, ex := range a.exemplars {
		if a.retainedRoots[ex.TraceID] {
			linked++
		}
	}
	if len(a.exemplars) == 0 || linked == 0 {
		fail("no exemplar links a latency bucket to a retained trace (%d exemplars, %d linked)",
			len(a.exemplars), linked)
	} else {
		ok("%d/%d exemplars link latency buckets to retained trace trees", linked, len(a.exemplars))
	}

	// (d) Tail sampling is economical against full tracing of the run.
	ratio := 0.0
	if a.spansRetained > 0 {
		ratio = float64(full.spansRetained) / float64(a.spansRetained)
	}
	if ratio < 20 {
		fail("tail sampling retained %d spans vs %d full-trace (%.1fx, want >= 20x)",
			a.spansRetained, full.spansRetained, ratio)
	} else {
		ok("tail sampling: %d spans retained vs %d full-trace (%.0fx fewer), %d/%d trees kept",
			a.spansRetained, full.spansRetained, ratio, a.tailKept, a.tailRoots)
	}

	st := trace.NewTable("SLO objective status at end of run",
		"objective", "ops", "breach", "err", "budget", "burn_fast", "burn_slow", "p99_est", "alerts")
	for _, s := range a.status {
		st.AddRow(s.Name, s.Ops, s.Breaches, s.Errors,
			fmt.Sprintf("%.2f", s.BudgetUsed),
			fmt.Sprintf("%.1f", s.BurnFast), fmt.Sprintf("%.1f", s.BurnSlow),
			s.QuantileEst, s.Alerts)
	}

	at := trace.NewTable("Alert stream (deterministic across runs)",
		"at", "event", "objective", "burn_fast", "burn_slow", "q_est", "ops")
	for _, al := range a.alerts {
		ev := "ALERT"
		if al.Cleared {
			ev = "clear"
		}
		at.AddRow(al.At, ev, al.Objective,
			fmt.Sprintf("%.1f", al.BurnFast), fmt.Sprintf("%.1f", al.BurnSlow),
			al.QuantileEst, al.Ops)
	}

	et := trace.NewTable("Sampling economics", "mode", "spans", "roots", "trees_kept")
	et.AddRow("full tracing", full.spansRetained, len(full.retainedRoots), "-")
	et.AddRow("tail-sampled", a.spansRetained, a.tailRoots, a.tailKept)

	return &Result{
		ID:     "O3",
		Title:  "SLO engine fires one storm alert; tail sampling keeps the evidence cheap",
		Tables: []*trace.Table{st, at, et},
		Notes:  notes,
		Pass:   pass,
	}
}
