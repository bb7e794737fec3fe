// Package slo is the judgment layer of the observability plane: a
// deterministic, default-off SLO engine evaluated in virtual time.
// Operators declare objectives per operation kind and priority class
// ("reqresp critical: p99 < 2ms, success >= 99.9% over a 1ms window");
// the engine maintains streaming windowed quantile sketches and error
// budgets over the transport's per-operation outcome stream, computes
// multi-window burn rates (fast and slow), and emits a deterministic
// alert stream as flight-recorder events and registry metrics.
// When an alert fires it captures a diagnosis bundle — the worst retained
// trace trees with critical-path attribution, the top-k flows, the
// hottest weathermap port, and the flight-recorder window — as one JSON
// artifact.
//
// Conventions match the rest of the obs plane: a nil *Engine is valid and
// observes nothing (the disabled hot path is one pointer compare); an
// armed engine only reads the simulation and appends to its own
// preallocated state, so an armed run is byte-identical to a dark one;
// every export walks state in declaration order, so two armed runs export
// identical bytes.
package slo

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// OpKind classifies a transport operation for objective matching.
type OpKind uint8

// Operation kinds, matching the transport's reliable operations.
const (
	KindReqResp OpKind = iota // request-response (and VMTP-free RPC)
	KindStream                // reliable byte-stream message
	KindVMTP                  // VMTP message transaction
	NumKinds
)

var kindNames = [NumKinds]string{"reqresp", "stream", "vmtp"}

// String returns the kind's display name.
func (k OpKind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "unknown"
}

// AnyClass matches every priority class in an Objective.
const AnyClass = 0xFF

// numClasses mirrors transport.NumClasses without importing transport
// (the transport imports this package for its outcome hook).
const numClasses = 3

var classNames = [numClasses]string{"normal", "critical", "bulk"}

// ClassName renders a priority class (AnyClass: "any").
func ClassName(c uint8) string {
	if c == AnyClass {
		return "any"
	}
	if int(c) < numClasses {
		return classNames[c]
	}
	return "unknown"
}

// Objective is one declared service-level objective: operations of Kind
// (and Class, unless AnyClass) should complete successfully within
// LatencyBound at the target Quantile, with at least SuccessRate of them
// neither failing nor breaching, measured over a sliding Window.
type Objective struct {
	// Name labels the objective everywhere: alerts, metrics
	// (slo.<name>.*), flight events. Required, unique.
	Name string
	// Kind is the operation kind the objective covers.
	Kind OpKind
	// Class is the priority class covered (AnyClass: all).
	Class uint8
	// Quantile is the latency quantile the bound applies to (0: 0.99).
	Quantile float64
	// LatencyBound is the latency objective: an operation slower than
	// this breaches. Required > 0.
	LatencyBound sim.Time
	// SuccessRate is the good-fraction target in (0, 1) (0: 0.999). Its
	// complement is the error budget burn rates are measured against.
	SuccessRate float64
	// Window is the fast evaluation window (0: DefaultWindow).
	Window sim.Time
}

// Engine tuning. DefaultWindow fills a zero-valued Objective.Window; the
// rest are fixed.
const (
	DefaultWindow = sim.Millisecond
	// DefaultSlices is the ring resolution per window: the engine
	// evaluates every Window/DefaultSlices of virtual time.
	DefaultSlices = 8
	// DefaultSlowWindows sizes the slow burn window as this many fast
	// windows.
	DefaultSlowWindows = 6
	// DefaultBurnThreshold is the burn rate both windows must reach to
	// fire an alert; an alert clears when the fast burn falls below 1.
	DefaultBurnThreshold = 2.0
	// DefaultMinOps gates alerting until the fast window holds at least
	// this many operations.
	DefaultMinOps = 8
	// DefaultMaxBundles bounds retained diagnosis bundles.
	DefaultMaxBundles = 4
)

// Params configures the engine. The zero value (no objectives) disables
// it entirely.
type Params struct {
	// Objectives are the declared SLOs; empty disables the engine.
	Objectives []Objective
}

// Alert is one burn-rate alert (or its clear) in the deterministic alert
// stream.
type Alert struct {
	At        sim.Time `json:"at_ns"`
	Objective string   `json:"objective"`
	// Seq numbers alerts across the engine, 1-based.
	Seq int64 `json:"seq"`
	// Cleared marks the end of an alert episode rather than its start.
	Cleared bool `json:"cleared,omitempty"`
	// BurnFast and BurnSlow are the error-budget burn rates over the
	// fast and slow windows at evaluation time (1.0 = burning exactly
	// the budget).
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// QuantileEst is the windowed latency-quantile estimate at the
	// objective's target quantile.
	QuantileEst sim.Time `json:"quantile_est_ns"`
	// Ops, Breaches, and Errors describe the fast window.
	Ops      int64 `json:"ops"`
	Breaches int64 `json:"breaches"`
	Errors   int64 `json:"errors"`
}

func (a Alert) String() string {
	verb := "ALERT"
	if a.Cleared {
		verb = "clear"
	}
	return fmt.Sprintf("%s %s at %v: burn fast=%.1fx slow=%.1fx, q=%v, %d ops (%d breach, %d err)",
		verb, a.Objective, a.At, a.BurnFast, a.BurnSlow, a.QuantileEst, a.Ops, a.Breaches, a.Errors)
}

// Exemplar links a sketch bucket to the trace that most recently landed
// in it, tying the latency distribution back to retained span trees.
type Exemplar struct {
	// BucketBound is the bucket's upper latency bound.
	BucketBound sim.Time `json:"bucket_bound_ns"`
	// TraceID is the root span id of the exemplar operation.
	TraceID uint64 `json:"trace_id"`
	// At is when the exemplar op completed; Latency its latency.
	At      sim.Time `json:"at_ns"`
	Latency sim.Time `json:"latency_ns"`
}

// slice is one ring entry: outcome counts plus sketch buckets for one
// Window/DefaultSlices interval of virtual time.
type slice struct {
	ops     int64
	breach  int64
	errs    int64
	buckets [numBuckets]int64
}

// objState is one objective's runtime state.
type objState struct {
	obj Objective
	// ring holds DefaultSlices*DefaultSlowWindows slices; cur is the index being
	// filled. Ticks advance cur and zero the reclaimed slice.
	ring []slice
	cur  int
	// exemplars[b] is the latest traced op that landed in bucket b.
	exemplars [numBuckets]Exemplar

	// Cumulative outcome counters (whole run).
	totalOps, totalBreach, totalErrs int64

	// Alert state, refreshed at every evaluation tick.
	alerting    bool
	alerts      int64
	burnFast    float64
	burnSlow    float64
	quantileEst sim.Time
}

// Engine evaluates declared objectives over the transport outcome stream.
// A nil *Engine is valid: Observe records nothing.
type Engine struct {
	eng  *sim.Engine
	objs []*objState
	// byKind[k] lists the objectives matching operation kind k — the
	// Observe dispatch table, preallocated so the hot path never
	// allocates.
	byKind [NumKinds][]*objState

	fr *obs.FlightRecorder
	// bundler builds a diagnosis bundle at alert time (wired by the
	// system assembler, which can see the tracer/flows/weathermap).
	bundler func(Alert) *Bundle
	bundles []*Bundle

	alertLog []Alert
	alertSeq int64

	tickEv  sim.Event
	stopped bool
}

// NewEngine builds an engine over the declared objectives. It validates
// nothing — the construction layer (core) enforces the "nectar: ..."
// panic contract before calling.
func NewEngine(eng *sim.Engine, p Params) *Engine {
	e := &Engine{eng: eng}
	for _, obj := range p.Objectives {
		if obj.Quantile == 0 {
			obj.Quantile = 0.99
		}
		if obj.SuccessRate == 0 {
			obj.SuccessRate = 0.999
		}
		if obj.Window == 0 {
			obj.Window = DefaultWindow
		}
		os := &objState{
			obj:  obj,
			ring: make([]slice, DefaultSlices*DefaultSlowWindows),
		}
		e.objs = append(e.objs, os)
		e.byKind[obj.Kind] = append(e.byKind[obj.Kind], os)
	}
	return e
}

// SetFlightRecorder arms alert notes into the system flight recorder.
func (e *Engine) SetFlightRecorder(fr *obs.FlightRecorder) {
	if e != nil {
		e.fr = fr
	}
}

// SetBundler installs the diagnosis-bundle builder invoked when an alert
// fires. The builder must only read simulation state.
func (e *Engine) SetBundler(fn func(Alert) *Bundle) {
	if e != nil {
		e.bundler = fn
	}
}

// Observe feeds one operation outcome: kind and priority class, end-to-end
// latency, success, and the root trace id of the operation's span tree
// (0 when untraced). This is the transport hot path: a nil engine is one
// pointer compare, an armed engine a few array updates — no allocation
// either way.
func (e *Engine) Observe(kind OpKind, class uint8, lat sim.Time, ok bool, traceID uint64) {
	if e == nil || kind >= NumKinds {
		return
	}
	now := e.eng.Now()
	for _, os := range e.byKind[kind] {
		if os.obj.Class != AnyClass && os.obj.Class != class {
			continue
		}
		sl := &os.ring[os.cur]
		sl.ops++
		os.totalOps++
		b := bucketOf(lat)
		sl.buckets[b]++
		if !ok {
			sl.errs++
			os.totalErrs++
		} else if lat > os.obj.LatencyBound {
			sl.breach++
			os.totalBreach++
		}
		if traceID != 0 {
			os.exemplars[b] = Exemplar{BucketBound: bucketBound(b), TraceID: traceID, At: now, Latency: lat}
		}
	}
}

// Start arms the evaluation tick chain. Like the sampler, an armed engine
// generates virtual-time events forever: drive the system with RunUntil or
// call Stop to let Run drain.
func (e *Engine) Start() {
	if e == nil || len(e.objs) == 0 {
		return
	}
	e.stopped = false
	e.schedule()
}

// Stop disarms the tick chain after the current tick; evaluated state and
// the alert log stay readable.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.stopped = true
	e.eng.Cancel(e.tickEv)
	e.tickEv = sim.Event{}
}

// tickPeriod is the engine's evaluation period: the smallest objective
// slice duration, so every objective is evaluated at least as often as
// its own resolution asks.
func (e *Engine) tickPeriod() sim.Time {
	p := sim.Time(0)
	for _, os := range e.objs {
		sp := os.obj.Window / DefaultSlices
		if sp <= 0 {
			sp = 1
		}
		if p == 0 || sp < p {
			p = sp
		}
	}
	return p
}

func (e *Engine) schedule() {
	if e.stopped {
		return
	}
	e.tickEv = e.eng.After(e.tickPeriod(), func() {
		e.tick()
		e.schedule()
	})
}

// tick rotates every objective's slice ring and re-evaluates burn rates.
// Objectives whose own slice period is longer than the engine tick rotate
// only when their slice has elapsed; with equal windows (the common case)
// every tick rotates every objective once.
func (e *Engine) tick() {
	now := e.eng.Now()
	for _, os := range e.objs {
		slicePeriod := os.obj.Window / DefaultSlices
		if slicePeriod <= 0 {
			slicePeriod = 1
		}
		// Rotate when the current slice's window has elapsed. Slice
		// boundaries are derived from absolute time, so rotation is a
		// pure function of virtual time, not tick jitter.
		if int(now/slicePeriod)%len(os.ring) == os.cur {
			continue
		}
		os.cur = (os.cur + 1) % len(os.ring)
		os.ring[os.cur] = slice{}
		e.evaluate(os, now)
	}
}

// window sums the most recent n slices (including the one being filled).
func (os *objState) window(n int) (ops, breach, errs int64, buckets [numBuckets]int64) {
	ln := len(os.ring)
	if n > ln {
		n = ln
	}
	for i := 0; i < n; i++ {
		sl := &os.ring[(os.cur-i+ln)%ln]
		ops += sl.ops
		breach += sl.breach
		errs += sl.errs
		for b := 0; b < numBuckets; b++ {
			buckets[b] += sl.buckets[b]
		}
	}
	return
}

// burn converts a bad fraction into an error-budget burn rate.
func burn(bad, total int64, successRate float64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - successRate
	if budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}

// evaluate recomputes one objective's burn rates and quantile estimate and
// walks the alert state machine: fire when both windows burn past the
// threshold (with at least DefaultMinOps in the fast window), clear when
// the fast burn falls below 1.
func (e *Engine) evaluate(os *objState, now sim.Time) {
	fastOps, fastBreach, fastErrs, fastBuckets := os.window(DefaultSlices)
	slowOps, slowBreach, slowErrs, _ := os.window(DefaultSlices * DefaultSlowWindows)

	os.burnFast = burn(fastBreach+fastErrs, fastOps, os.obj.SuccessRate)
	os.burnSlow = burn(slowBreach+slowErrs, slowOps, os.obj.SuccessRate)
	os.quantileEst = quantileOf(&fastBuckets, fastOps, os.obj.Quantile)

	thr := DefaultBurnThreshold
	switch {
	case !os.alerting && os.burnFast >= thr && os.burnSlow >= thr && fastOps >= DefaultMinOps:
		os.alerting = true
		os.alerts++
		e.alertSeq++
		a := Alert{
			At: now, Objective: os.obj.Name, Seq: e.alertSeq,
			BurnFast: os.burnFast, BurnSlow: os.burnSlow,
			QuantileEst: os.quantileEst,
			Ops:         fastOps, Breaches: fastBreach, Errors: fastErrs,
		}
		e.alertLog = append(e.alertLog, a)
		e.fr.Note(obs.FSLOAlert, os.obj.Name, int64(os.burnFast*100), int64(os.quantileEst))
		if e.bundler != nil {
			if b := e.bundler(a); b != nil && len(e.bundles) < DefaultMaxBundles {
				e.bundles = append(e.bundles, b)
			}
		}
	case os.alerting && os.burnFast < 1:
		os.alerting = false
		e.alertSeq++
		e.alertLog = append(e.alertLog, Alert{
			At: now, Objective: os.obj.Name, Seq: e.alertSeq, Cleared: true,
			BurnFast: os.burnFast, BurnSlow: os.burnSlow,
			QuantileEst: os.quantileEst,
			Ops:         fastOps, Breaches: fastBreach, Errors: fastErrs,
		})
		e.fr.Note(obs.FSLOClear, os.obj.Name, int64(os.burnFast*100), 0)
	}
}

// Alerts returns the alert stream (fires and clears) in order.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	return e.alertLog
}

// AlertCount returns how many alerts fired (clears excluded).
func (e *Engine) AlertCount() int64 {
	if e == nil {
		return 0
	}
	var n int64
	for _, os := range e.objs {
		n += os.alerts
	}
	return n
}

// Bundles returns the captured diagnosis bundles in fire order.
func (e *Engine) Bundles() []*Bundle {
	if e == nil {
		return nil
	}
	return e.bundles
}

// ObjectiveStatus is one objective's readout for status views.
type ObjectiveStatus struct {
	Name         string   `json:"name"`
	Kind         string   `json:"kind"`
	Class        string   `json:"class"`
	Quantile     float64  `json:"quantile"`
	LatencyBound sim.Time `json:"latency_bound_ns"`
	SuccessRate  float64  `json:"success_rate"`
	Window       sim.Time `json:"window_ns"`

	Ops      int64 `json:"ops"`
	Breaches int64 `json:"breaches"`
	Errors   int64 `json:"errors"`
	// BudgetUsed is the whole-run error-budget consumption: 1.0 means
	// exactly the allowed bad fraction has been spent.
	BudgetUsed  float64  `json:"budget_used"`
	BurnFast    float64  `json:"burn_fast"`
	BurnSlow    float64  `json:"burn_slow"`
	QuantileEst sim.Time `json:"quantile_est_ns"`
	Alerting    bool     `json:"alerting"`
	Alerts      int64    `json:"alerts"`
}

// Status returns every objective's readout in declaration order.
func (e *Engine) Status() []ObjectiveStatus {
	if e == nil {
		return nil
	}
	out := make([]ObjectiveStatus, 0, len(e.objs))
	for _, os := range e.objs {
		out = append(out, ObjectiveStatus{
			Name:         os.obj.Name,
			Kind:         os.obj.Kind.String(),
			Class:        ClassName(os.obj.Class),
			Quantile:     os.obj.Quantile,
			LatencyBound: os.obj.LatencyBound,
			SuccessRate:  os.obj.SuccessRate,
			Window:       os.obj.Window,
			Ops:          os.totalOps,
			Breaches:     os.totalBreach,
			Errors:       os.totalErrs,
			BudgetUsed:   burn(os.totalBreach+os.totalErrs, os.totalOps, os.obj.SuccessRate),
			BurnFast:     os.burnFast,
			BurnSlow:     os.burnSlow,
			QuantileEst:  os.quantileEst,
			Alerting:     os.alerting,
			Alerts:       os.alerts,
		})
	}
	return out
}

// Text renders the engine's status and alert stream as a fixed-width
// console block — the view behind nectar-sim -slo. Deterministic:
// objectives in declaration order, alerts in fire order.
func (e *Engine) Text() string {
	if e == nil {
		return "slo: engine not armed\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-8s %-8s %8s %8s %6s %8s %10s %10s %10s %7s %6s\n",
		"objective", "kind", "class", "ops", "breach", "err",
		"budget", "burn_fast", "burn_slow", "q_est", "alerts", "state")
	for _, s := range e.Status() {
		state := "ok"
		if s.Alerting {
			state = "ALERT"
		}
		fmt.Fprintf(&b, "%-16s %-8s %-8s %8d %8d %6d %8.2f %10.1f %10.1f %10v %7d %6s\n",
			s.Name, s.Kind, s.Class, s.Ops, s.Breaches, s.Errors,
			s.BudgetUsed, s.BurnFast, s.BurnSlow, s.QuantileEst, s.Alerts, state)
	}
	if len(e.alertLog) > 0 {
		b.WriteString("\nalert stream:\n")
		for _, a := range e.alertLog {
			fmt.Fprintf(&b, "  %s\n", a.String())
		}
	}
	return b.String()
}

// Exemplars returns objective name's non-empty bucket exemplars in bucket
// order (nil for an unknown objective).
func (e *Engine) Exemplars(name string) []Exemplar {
	if e == nil {
		return nil
	}
	for _, os := range e.objs {
		if os.obj.Name != name {
			continue
		}
		var out []Exemplar
		for b := 0; b < numBuckets; b++ {
			if os.exemplars[b].TraceID != 0 {
				out = append(out, os.exemplars[b])
			}
		}
		return out
	}
	return nil
}
