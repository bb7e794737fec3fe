package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Gauge is a level metric (queue occupancy, window in flight). Besides the
// instantaneous value it integrates value*dt, yielding the time-weighted
// mean over the gauge's lifetime — the number the paper's queueing
// discussions care about. A nil *Gauge is valid and records nothing.
type Gauge struct {
	name     string
	eng      *sim.Engine
	val      int64
	max      int64
	created  sim.Time
	since    sim.Time // time of last value change
	weighted float64  // integral of val dt over [created, since]
}

// NewGauge returns a zeroed gauge opening its window now.
func NewGauge(name string, eng *sim.Engine) *Gauge {
	now := eng.Now()
	return &Gauge{name: name, eng: eng, created: now, since: now}
}

// Name returns the gauge's display name ("" for nil).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Set records a new level at the current simulated time.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	now := g.eng.Now()
	g.weighted += float64(g.val) * float64(now-g.since)
	g.since = now
	g.val = v
	if v > g.max {
		g.max = v
	}
}

// Add adjusts the level by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.Set(g.val + delta)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.val
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Mean returns the time-weighted mean level from gauge creation to now.
func (g *Gauge) Mean() float64 {
	if g == nil {
		return 0
	}
	now := g.eng.Now()
	window := now - g.created
	if window <= 0 {
		return float64(g.val)
	}
	w := g.weighted + float64(g.val)*float64(now-g.since)
	return w / float64(window)
}

// Registry is the metrics registry: components register named counters,
// gauges, histograms, and read-out functions; experiments snapshot, diff,
// and export it. A nil *Registry is valid: every lookup returns a nil
// instrument whose methods record nothing, so the uninstrumented hot path
// stays allocation-free.
type Registry struct {
	eng      *sim.Engine
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry bound to the engine.
func NewRegistry(eng *sim.Engine) *Registry {
	return &Registry{
		eng:      eng,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := NewCounter(name)
	r.counters[name] = c
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := NewGauge(name, r.eng)
	r.gauges[name] = g
	return g
}

// histogramCap bounds the samples a registry histogram retains, so that
// its memory does not grow with the length of a run. 1<<17 samples still
// resolve p99.9 with more than ten samples beyond it.
const histogramCap = 1 << 17

// Histogram returns (registering on first use) the named histogram. It
// retains at most histogramCap samples (see Histogram.SetCap).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := NewHistogram(name)
	h.SetCap(histogramCap)
	r.hists[name] = h
	return h
}

// Func registers a read-out metric: fn is evaluated at snapshot time. It
// lets components expose existing internal counters (datalink stats, CPU
// busy time, port counters) without double bookkeeping on the hot path.
// Re-registering a name replaces the function.
func (r *Registry) Func(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.funcs[name] = fn
}

// HistSummary is a histogram's exported summary.
type HistSummary struct {
	Count int
	Min   sim.Time
	P50   sim.Time
	Mean  sim.Time
	P95   sim.Time
	Max   sim.Time
}

// GaugeValue is a gauge's exported state.
type GaugeValue struct {
	Value int64
	Max   int64
	Mean  float64
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	At       sim.Time
	Counters map[string]int64
	Gauges   map[string]GaugeValue
	Hists    map[string]HistSummary
	Funcs    map[string]float64
}

// Snapshot captures every metric at the current simulated time.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	s := &Snapshot{
		At:       r.eng.Now(),
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]GaugeValue, len(r.gauges)),
		Hists:    make(map[string]HistSummary, len(r.hists)),
		Funcs:    make(map[string]float64, len(r.funcs)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = GaugeValue{Value: g.Value(), Max: g.Max(), Mean: g.Mean()}
	}
	for n, h := range r.hists {
		s.Hists[n] = HistSummary{
			Count: h.Count(), Min: h.Min(), P50: h.Median(),
			Mean: h.Mean(), P95: h.Quantile(0.95), Max: h.Max(),
		}
	}
	for n, fn := range r.funcs {
		s.Funcs[n] = fn()
	}
	return s
}

// sortedKeys returns m's keys in sorted order for deterministic rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Text renders the snapshot as aligned name/value lines, sorted by name.
func (s *Snapshot) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics at %v\n", s.At)
	for _, n := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "  %-44s %d\n", n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Funcs) {
		v := s.Funcs[n]
		if v == float64(int64(v)) {
			fmt.Fprintf(&b, "  %-44s %d\n", n, int64(v))
		} else {
			fmt.Fprintf(&b, "  %-44s %.2f\n", n, v)
		}
	}
	for _, n := range sortedKeys(s.Gauges) {
		g := s.Gauges[n]
		fmt.Fprintf(&b, "  %-44s cur=%d max=%d mean=%.2f\n", n, g.Value, g.Max, g.Mean)
	}
	for _, n := range sortedKeys(s.Hists) {
		h := s.Hists[n]
		fmt.Fprintf(&b, "  %-44s n=%d min=%v p50=%v mean=%v p95=%v max=%v\n",
			n, h.Count, h.Min, h.P50, h.Mean, h.P95, h.Max)
	}
	return b.String()
}

// Text snapshots the registry and renders it.
func (r *Registry) Text() string { return r.Snapshot().Text() }
