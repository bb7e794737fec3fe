package slo

import (
	"encoding/json"

	"repro/internal/sim"
)

// A diagnosis bundle is the artifact an alert leaves behind: everything an
// operator would gather by hand in the first minutes of an incident,
// captured automatically at fire time while the evidence is still in the
// rings. The engine does not build bundles itself — it cannot see the
// tracer, flow table, or weathermap — the system assembler installs a
// builder via SetBundler that snapshots those read-only and hands the
// result back. All fields are plain scalars and strings so a bundle
// marshals to one self-contained JSON document.

// BundleSpan is one span row inside a dumped trace tree.
type BundleSpan struct {
	ID       uint64   `json:"id"`
	Parent   uint64   `json:"parent,omitempty"`
	Layer    string   `json:"layer"`
	Comp     string   `json:"comp"`
	Name     string   `json:"name"`
	Start    sim.Time `json:"start_ns"`
	Duration sim.Time `json:"dur_ns"`
}

// BundlePathStep is one step of a trace's critical path.
type BundlePathStep struct {
	Layer    string   `json:"layer"`
	Comp     string   `json:"comp"`
	Name     string   `json:"name"`
	Duration sim.Time `json:"dur_ns"`
}

// BundleTrace is one retained span tree: the root's identity and latency,
// every retained span, and the critical path through the tree with
// per-step attribution.
type BundleTrace struct {
	TraceID  uint64   `json:"trace_id"`
	Root     string   `json:"root"`
	Comp     string   `json:"comp"`
	Latency  sim.Time `json:"latency_ns"`
	Errored  bool     `json:"errored,omitempty"`
	Breached bool     `json:"breached,omitempty"`

	Spans        []BundleSpan     `json:"spans"`
	CriticalPath []BundlePathStep `json:"critical_path"`
}

// BundleFlow is one top-k flow-table entry.
type BundleFlow struct {
	Src   uint16 `json:"src"`
	Dst   uint16 `json:"dst"`
	Proto string `json:"proto"`
	Count int64  `json:"count"`
	Err   int64  `json:"err,omitempty"`
}

// BundlePort is a weathermap port readout (the hottest one at capture).
type BundlePort struct {
	Name       string `json:"name"`
	QueueBytes int64  `json:"queue_bytes"`
	HighWater  int64  `json:"high_water_bytes"`
}

// BundleEvent is one flight-recorder event in the captured window.
type BundleEvent struct {
	Seq   uint64   `json:"seq"`
	At    sim.Time `json:"at_ns"`
	Kind  string   `json:"kind"`
	Where string   `json:"where"`
	A     int64    `json:"a"`
	B     int64    `json:"b"`
}

// BundleSampling summarizes the tail sampler at capture time — the
// denominator that says how much cheaper sampling was than full tracing.
type BundleSampling struct {
	Roots         int64 `json:"roots"`
	TreesKept     int64 `json:"trees_kept"`
	TreesDropped  int64 `json:"trees_dropped"`
	SpansRetained int   `json:"spans_retained"`
	SpansDropped  int64 `json:"spans_dropped"`
}

// Bundle is one captured diagnosis artifact.
type Bundle struct {
	// At is the capture (alert) time; Alert the alert that triggered it.
	At    sim.Time `json:"at_ns"`
	Alert Alert    `json:"alert"`
	// Objectives is every objective's status at capture.
	Objectives []ObjectiveStatus `json:"objectives"`
	// HotPort is the weathermap port with the deepest input queue.
	HotPort BundlePort `json:"hot_port"`
	// TopFlows are the busiest flows at capture, busiest first.
	TopFlows []BundleFlow `json:"top_flows"`
	// Traces are the worst retained span trees for the alerting
	// objective, slowest first.
	Traces []BundleTrace `json:"traces"`
	// Exemplars link the alerting objective's latency buckets to
	// retained trace ids.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
	// Flight is the flight-recorder window at capture, oldest first.
	Flight []BundleEvent `json:"flight"`
	// Sampling summarizes tail-sampling economics at capture.
	Sampling BundleSampling `json:"sampling"`
}

// JSON returns the bundle as one indented JSON document. Field order
// follows the struct, slices were built in deterministic order, so two
// armed runs write identical bytes.
func (b *Bundle) JSON() []byte {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return out
}
