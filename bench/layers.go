package main

import (
	"math"
	"slices"

	"repro/internal/trace"
)

// layerMetrics derives the per-layer metrics of the traced run: counts from
// an untraced rep, simulated self time from a traced rep, host time from
// all of each kind, probes as measured. The reps share seed and window, so
// everything simulated is the same in all of them (summarize checks).
func layerMetrics(plains, traceds []*repResult, probes map[string]float64) map[string]float64 {
	plain, traced := plains[0], traceds[0]
	n := len(plain.Bounds) - 1
	first, last := plain.Bounds[0], plain.Bounds[n]
	p0, p1 := plain.StartProc, plain.EndProc
	ops := float64(plain.Ops)
	kop := ops / 1000
	simS := float64(plain.SimWindowNs) / 1e9
	d := plain.End.since(plain.Start)
	host := estimateHost(plains, 0)
	// Once the tracer is full it drops spans for free, so only the slices
	// it covered say what tracing costs.
	hostTraced := estimateHost(traceds, traced.SelfSlices)

	var pending, groupOps []float64
	for i, b := range plain.Bounds {
		pending = append(pending, float64(b.Pending))
		if i > 0 && (i%sliceGroup == 0 || i == n) {
			groupOps = append(groupOps, float64(b.Ops-plain.Bounds[(i-1)/sliceGroup*sliceGroup].Ops))
		}
	}
	selfUs := func(layers ...string) float64 {
		var ns int64
		for _, l := range layers {
			ns += traced.LayerSelfNs[l]
		}
		return float64(ns) / 1e3 / float64(traced.SelfOps)
	}
	var builds, warmups []int64
	for _, r := range plains {
		builds = append(builds, r.BuildNs)
		warmups = append(warmups, sum(r.SetupNs)-r.BuildNs)
	}
	allreduceNs := plain.AllreduceP50Ns
	if allreduceNs == 0 {
		allreduceNs = traced.AllreduceP50Ns
	}

	m := map[string]float64{
		"sim.host_ns_per_event":   host.nsPerEvent,
		"sim.events_per_op":       float64(last.Events-first.Events) / ops,
		"sim.pending_events_mean": mean(pending),
		"sim.cpu_per_wall":        float64(p1.CPUNs-p0.CPUNs) / float64(last.WallNs-first.WallNs),
		"sim.gc_cycles_per_kop":   float64(p1.NumGC-p0.NumGC) / kop,

		"kernel.switches_per_op":    float64(d[kernelSwitches]) / ops,
		"kernel.sim_self_us_per_op": selfUs(trace.LayerKernel),

		"transport.acks_per_op":            float64(d[tpAcks]) / ops,
		"transport.retransmits_per_kop":    float64(d[tpRetransmits]) / kop,
		"transport.rto_expiries_per_kop":   float64(d[tpRTOExpiries]) / kop,
		"transport.checksum_drops_per_kop": float64(d[tpChecksumDrops]) / kop,
		"transport.dup_requests_per_kop":   float64(d[tpDupRequests]) / kop,
		"transport.mailbox_drops_per_kop":  float64(d[tpMailboxDrops]) / kop,
		"transport.sim_self_us_per_op":     selfUs(trace.LayerTransport),

		"datalink.packets_per_op":        float64(d[dlPackets]) / ops,
		"datalink.bytes_per_op":          float64(d[dlBytes]) / ops,
		"datalink.open_timeouts_per_kop": float64(d[dlOpenTimeouts]) / kop,
		"datalink.open_failures_per_kop": float64(d[dlOpenFailures]) / kop,
		"datalink.sim_self_us_per_op":    selfUs(trace.LayerDatalink),

		"hub.forwards_per_packet": float64(d[hubForwards]) / float64(d[dlPackets]),
		"hub.drops_per_kop":       float64(d[hubDrops]) / kop,
		"hub.peak_queue_bytes":    float64(d[hubPeakQueue]),
		"hub.sim_self_us_per_op":  selfUs(trace.LayerHub),

		"fiber.items_per_op":       float64(d[fiberItems]) / ops,
		"fiber.bytes_per_op":       float64(d[fiberBytes]) / ops,
		"fiber.damaged_per_kop":    float64(d[fiberDamaged]) / kop,
		"fiber.sim_self_us_per_op": selfUs(trace.LayerFiber),

		"cab.dma_transfers_per_op": float64(d[dmaTransfers]) / ops,
		"cab.dma_bytes_per_op":     float64(d[dmaBytes]) / ops,
		"cab.sim_self_us_per_op":   selfUs(trace.LayerDMA, trace.LayerVME),

		"coll.steps_per_sim_s":    float64(plain.CollSteps) / simS,
		"coll.allreduce_p50_us":   float64(allreduceNs) / 1e3,
		"coll.sim_self_us_per_op": selfUs(trace.LayerColl),

		"core.build_s":  float64(slices.Min(builds)) / 1e9,
		"core.warmup_s": float64(slices.Min(warmups)) / 1e9,

		"obs.trace_overhead_ratio":      hostTraced.nsPerEvent / host.nsPerEvent,
		"obs.spans_per_op":              float64(traced.SelfSpans) / float64(traced.SelfOps),
		"obs.flows_tracked":             float64(d[flowsTracked]),
		"obs.flight_events_per_op":      float64(d[flightEvents]) / ops,
		"obs.sampler_points_per_sim_ms": float64(d[samplerPoints]) / (simS * 1e3),

		"load.shed_per_kop":     float64(plain.Shed) / kop,
		"load.ops_per_slice_cv": stddev(groupOps) / mean(groupOps),
	}
	for k, v := range probes {
		m[k] = v
	}
	return m
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func stddev(v []float64) float64 {
	mu := mean(v)
	var s float64
	for _, x := range v {
		s += (x - mu) * (x - mu)
	}
	return math.Sqrt(s / float64(len(v)))
}
