package main

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; bench_test.go checks that the two agree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the worsening, as a share, that counts as a regression
	exact  bool    // simulated: two runs of one seed agree on it bit for bit
}

// Simulated time (the modelled Nectar, repeats exactly for one seed) and
// host time (the simulator, noisy on a shared box) are never mixed in one
// number: a sim_ prefix or a sim- unit says simulated, everything else is
// host.
//
// A driver holds two things to the one bound: the worsening of a median
// over ten seeds, and the spread (interquartile range over median) of the
// ten values themselves, which is to stay under a third of it. ISSUE 12
// wrote its bounds (10 % host time, 1 % allocations, 3 % memory, simulated
// values exact) for runs of one seed, and only live_mem_mb's survives the
// second use. So every other bound is three times the widest spread over
// ten seeds measured on any workload while the box kept one speed
// (README.md, "Steadiness"), and setup_s, whose spread a driver does not
// look at, has the largest. What the issue asks of the simulated metrics is
// held where seeds are equal: the reps of a run, and the two sets of -aa,
// must agree on every exact metric bit for bit.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "host_s_per_sim_s", unit: "host-s/sim-s", better: "lower", bound: 0.20},
	{name: "host_us_per_op", unit: "us", better: "lower", bound: 0.20},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.035},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower", bound: 0.035},
	{name: "live_mem_mb", unit: "MB", better: "lower", bound: 0.03},
	{name: "sim_ops_per_s", unit: "1/sim-s", better: "higher", bound: 0.06, exact: true},
	{name: "sim_goodput_mbps", unit: "Mb/sim-s", better: "higher", bound: 0.06, exact: true},
	{name: "sim_p50_us", unit: "sim-us", better: "lower", bound: 0.08, exact: true},
	{name: "sim_tail_us", unit: "sim-us", better: "lower", bound: 0.18, exact: true},
	{name: "ok_op_share", unit: "ratio", better: "higher", bound: 0.001, exact: true},
}

// perLayer lists the layer metrics of the traced run: counts read from
// public getters at the ends of the window (exact), simulated self time
// from the program's span tracer (exact), and probes, which drive one
// layer alone in a tight loop (host time, min of batches). README.md maps
// each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.events_per_op", unit: "count", better: "lower"},
	{name: "sim.pending_events_mean", unit: "count", better: "lower"},
	{name: "sim.cpu_per_wall", unit: "ratio", better: "lower"},
	{name: "sim.gc_cycles_per_kop", unit: "count", better: "lower"},
	{name: "sim.probe.event_ns", unit: "ns", better: "lower"},
	{name: "sim.probe.event_allocs", unit: "count", better: "lower"},
	{name: "sim.probe.proc_switch_ns", unit: "ns", better: "lower"},
	{name: "sim.probe.proc_switch_p2_ns", unit: "ns", better: "lower"},
	{name: "sim.probe.signal_handoff_ns", unit: "ns", better: "lower"},

	{name: "kernel.switches_per_op", unit: "count", better: "lower"},
	{name: "kernel.sim_self_us_per_op", unit: "sim-us", better: "lower"},
	{name: "kernel.probe.thread_switch_ns", unit: "ns", better: "lower"},
	{name: "kernel.probe.mailbox_putget_ns", unit: "ns", better: "lower"},
	{name: "kernel.probe.mailbox_putget_allocs", unit: "count", better: "lower"},

	{name: "transport.acks_per_op", unit: "count", better: "lower"},
	{name: "transport.retransmits_per_kop", unit: "count", better: "lower"},
	{name: "transport.rto_expiries_per_kop", unit: "count", better: "lower"},
	{name: "transport.checksum_drops_per_kop", unit: "count", better: "lower"},
	{name: "transport.dup_requests_per_kop", unit: "count", better: "lower"},
	{name: "transport.mailbox_drops_per_kop", unit: "count", better: "lower"},
	{name: "transport.sim_self_us_per_op", unit: "sim-us", better: "lower"},
	{name: "transport.probe.request_ns", unit: "ns", better: "lower"},
	{name: "transport.probe.request_allocs", unit: "count", better: "lower"},
	{name: "transport.probe.vtransact_ns", unit: "ns", better: "lower"},
	{name: "transport.probe.vtransact_allocs", unit: "count", better: "lower"},
	{name: "transport.probe.stream64k_ns_per_kb", unit: "ns", better: "lower"},
	{name: "transport.probe.stream64k_allocs_per_kb", unit: "count", better: "lower"},

	{name: "datalink.packets_per_op", unit: "count", better: "lower"},
	{name: "datalink.bytes_per_op", unit: "B", better: "lower"},
	{name: "datalink.open_timeouts_per_kop", unit: "count", better: "lower"},
	{name: "datalink.open_failures_per_kop", unit: "count", better: "lower"},
	{name: "datalink.sim_self_us_per_op", unit: "sim-us", better: "lower"},
	{name: "datalink.probe.send_packet_ns", unit: "ns", better: "lower"},
	{name: "datalink.probe.send_packet_allocs", unit: "count", better: "lower"},

	{name: "hub.forwards_per_packet", unit: "count", better: "lower"},
	{name: "hub.drops_per_kop", unit: "count", better: "lower"},
	{name: "hub.peak_queue_bytes", unit: "B", better: "lower"},
	{name: "hub.sim_self_us_per_op", unit: "sim-us", better: "lower"},
	{name: "hub.probe.forward_ns", unit: "ns", better: "lower"},
	{name: "hub.probe.forward_allocs", unit: "count", better: "lower"},
	{name: "hub.probe.circuit_ns", unit: "ns", better: "lower"},

	{name: "fiber.items_per_op", unit: "count", better: "lower"},
	{name: "fiber.bytes_per_op", unit: "B", better: "lower"},
	{name: "fiber.damaged_per_kop", unit: "count", better: "lower"},
	{name: "fiber.sim_self_us_per_op", unit: "sim-us", better: "lower"},
	{name: "fiber.probe.send_ns", unit: "ns", better: "lower"},
	{name: "fiber.probe.send_allocs", unit: "count", better: "lower"},

	{name: "cab.dma_transfers_per_op", unit: "count", better: "lower"},
	{name: "cab.dma_bytes_per_op", unit: "B", better: "lower"},
	{name: "cab.sim_self_us_per_op", unit: "sim-us", better: "lower"},
	{name: "cab.probe.checksum_ns_per_kb", unit: "ns", better: "lower"},
	{name: "cab.probe.dma_transfer_ns", unit: "ns", better: "lower"},

	{name: "coll.steps_per_sim_s", unit: "1/sim-s", better: "higher"},
	{name: "coll.allreduce_p50_us", unit: "sim-us", better: "lower"},
	{name: "coll.sim_self_us_per_op", unit: "sim-us", better: "lower"},
	{name: "coll.probe.allreduce8_ns", unit: "ns", better: "lower"},
	{name: "coll.probe.allreduce8_allocs", unit: "count", better: "lower"},

	{name: "topo.probe.build1024_s", unit: "s", better: "lower"},
	{name: "topo.probe.route_ns", unit: "ns", better: "lower"},
	{name: "core.build_s", unit: "s", better: "lower"},
	{name: "core.warmup_s", unit: "s", better: "lower"},

	{name: "obs.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "obs.spans_per_op", unit: "count", better: "lower"},
	{name: "obs.flows_tracked", unit: "count", better: "lower"},
	{name: "obs.flight_events_per_op", unit: "count", better: "lower"},
	{name: "obs.sampler_points_per_sim_ms", unit: "count", better: "lower"},
	{name: "obs.probe.span_ns", unit: "ns", better: "lower"},
	{name: "obs.probe.span_disabled_ns", unit: "ns", better: "lower"},
	{name: "obs.probe.flight_note_ns", unit: "ns", better: "lower"},
	{name: "obs.probe.flow_account_ns", unit: "ns", better: "lower"},
	{name: "obs.probe.slo_observe_ns", unit: "ns", better: "lower"},
	{name: "obs.probe.sampler_tick_ns", unit: "ns", better: "lower"},

	{name: "load.shed_per_kop", unit: "count", better: "lower"},
	{name: "load.ops_per_slice_cv", unit: "ratio", better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func toMetrics(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
