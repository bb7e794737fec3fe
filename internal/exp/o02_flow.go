package exp

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs/flow"
	"repro/internal/sim"
	"repro/internal/trace"
)

// O2 — the flow observatory under a congestion storm. On a 2x2 mesh, two
// CABs blast datagrams at a victim while a background client runs paced
// request-response traffic through the same victim port. The observatory
// must (a) change nothing: the background traffic's latency digest is
// byte-identical with the observatory fully armed and fully off, and two
// armed runs export byte-identical flow/sampler records; (b) finger the
// culprits: the space-saving sketch names the two storm flows as the
// heaviest; (c) localize the pain: the weathermap's hottest port is on the
// storm HUB, and the critical-path decomposition of the storm-window p99
// request attributes at least half its latency to queueing at the
// congested HUB's ports.

const o2Horizon = 8 * sim.Millisecond

// o2HotSpot is the cast, on Mesh(2,2,3) where CAB = hubIdx*3 + k: client
// CAB 1 (hub idx 0) sends a request every 100 us to CAB 11 (hub idx 3,
// "hub4"); storm sources CAB 9 and CAB 10 are the victim's hub-local
// neighbors, so the only contended resource is hub4's output register
// toward CAB 11 — queue peaks and the request's queueing both concentrate
// on hub4's ports, nowhere else.
var o2HotSpot = fault.HotSpot{
	Client: 1, Victim: 11, Every: 100 * sim.Microsecond,
	Srcs: []int{9, 10}, At: sim.Millisecond, Duration: 4 * sim.Millisecond, Size: 512,
}

type o2Outcome struct {
	digest     trace.Digest
	requests   int
	flowCSV    []byte
	samplerCSV []byte
	top        []flow.TopEntry
	flows      *flow.Table
	weather    *flow.Weathermap
	p99        *trace.PathBreakdown
}

// o2Run drives the scenario. observe arms the full observatory (flows,
// sampler, flight recorder, span tracing, metrics); off leaves every
// instrument dark. The returned digest folds each background request's
// index, latency, and error state — any timing perturbation from the
// observatory would change it.
func o2Run(observe bool) o2Outcome {
	opts := []core.Option{}
	if observe {
		opts = append(opts,
			core.WithMetrics(),
			core.WithObservatory(),
			func(p *core.Params) { p.TraceSpans = 200000 },
		)
	}
	sys := core.New(core.Mesh(2, 2, 3), opts...)
	run := fault.StartHotSpot(sys, o2HotSpot)
	sys.RunUntil(o2Horizon)
	sys.StopTelemetry()

	out := o2Outcome{digest: run.Digest, requests: run.Requests}
	if !observe {
		return out
	}
	out.flows = sys.Flows
	out.flowCSV = sys.Flows.CSV()
	out.samplerCSV = sys.Sampler.CSV()
	out.top = sys.Flows.Top()
	out.weather = sys.Weathermap()
	out.p99 = run.CriticalPath(0.99)
	return out
}

// stormHub is the name of the HUB the storm converges on (CAB 11 lives on
// mesh hub index 3; hub IDs are 1-based).
const stormHub = "hub4"

// O2FlowObservatory runs the flow-observatory congestion experiment.
func O2FlowObservatory() *Result {
	dark := o2Run(false)
	a := o2Run(true)
	b := o2Run(true)

	pass := true
	var notes []string
	fail := func(format string, args ...interface{}) {
		pass = false
		notes = append(notes, fmt.Sprintf(format, args...))
	}
	ok := func(format string, args ...interface{}) {
		notes = append(notes, fmt.Sprintf(format, args...))
	}

	// (a) The observatory is invisible to the run.
	if dark.digest != a.digest || dark.requests != a.requests {
		fail("observatory PERTURBED the run: digest %016x/%d requests dark vs %016x/%d observed",
			dark.digest, dark.requests, a.digest, a.requests)
	} else {
		ok("observatory invisible: latency digest %016x over %d requests, armed and dark",
			a.digest, a.requests)
	}
	if !bytes.Equal(a.flowCSV, b.flowCSV) {
		fail("flow-record export NOT byte-identical across two armed runs")
	} else if !bytes.Equal(a.samplerCSV, b.samplerCSV) {
		fail("sampler export NOT byte-identical across two armed runs")
	} else {
		ok("replay deterministic: flow CSV (%d bytes) and sampler CSV (%d bytes) byte-identical",
			len(a.flowCSV), len(a.samplerCSV))
	}

	// (b) The sketch names the storm flows heaviest.
	want := map[flow.Key]bool{}
	for _, src := range o2HotSpot.Srcs {
		want[flow.Key{Src: uint16(src), Dst: uint16(o2HotSpot.Victim), Proto: 1}] = true // ProtoDatagram
	}
	named := 0
	for i, e := range a.top {
		if i >= len(o2HotSpot.Srcs) {
			break
		}
		if want[e.Key] {
			named++
		}
	}
	if named != len(o2HotSpot.Srcs) {
		fail("top-k sketch missed the heavy hitters: top entries %v", a.top)
	} else {
		ok("top-k sketch names both storm flows heaviest (cab9->cab11, cab10->cab11 datagram)")
	}

	// (c) The weathermap fingers a port on the storm HUB.
	hot := a.weather.Hottest()
	if hot == nil || hot.Hub != stormHub {
		name := "<none>"
		if hot != nil {
			name = hot.Name
		}
		fail("weathermap hottest port %s is not on the storm hub %s", name, stormHub)
	} else {
		ok("weathermap fingers %s: peak %d/%d bytes, %d drops",
			hot.Name, hot.QueuePeak, a.weather.QueueCap, hot.Drops)
	}

	// (d) Critical path: >= half the storm-window p99 request latency is
	// queueing at the congested port.
	var critTable *trace.Table
	if a.p99 == nil {
		fail("no traced background request completed inside the storm window")
	} else {
		critTable = trace.NewTable(
			fmt.Sprintf("Where did the p99 go? (storm-window p99 request: %v end to end)", a.p99.Total),
			"component", "kind", "time", "share")
		for _, s := range a.p99.Slices {
			critTable.AddRow(s.Comp, s.Kind, s.Time,
				fmt.Sprintf("%.1f%%", 100*float64(s.Time)/float64(a.p99.Total)))
		}
		mq := a.p99.MaxQueue()
		share := float64(mq.Time) / float64(a.p99.Total)
		if !strings.HasPrefix(mq.Comp, stormHub+".") {
			fail("p99 queueing hotspot %s is not on the storm hub %s", mq.Comp, stormHub)
		} else if share < 0.5 {
			fail("congested port %s explains only %.0f%% of the p99 (want >= 50%%)", mq.Comp, 100*share)
		} else {
			ok("critical path: %.0f%% of the p99 request (%v) is queueing at %s",
				100*share, a.p99.Total, mq.Comp)
		}
	}

	ft := trace.NewTable("Heaviest flows during the storm (2 blasters + request traffic -> CAB 11)",
		"src", "dst", "proto", "frames", "bytes", "rexmit", "queue")
	for i, r := range a.flows.Records() {
		if i >= 8 {
			break
		}
		dst := fmt.Sprintf("cab%d", r.Dst)
		if r.Dst == flow.McastDst {
			dst = "*"
		}
		ft.AddRow(fmt.Sprintf("cab%d", r.Src), dst, a.flows.ProtoName(r.Proto),
			r.Frames, r.Bytes, r.Retransmits, r.Queue)
	}

	wt := trace.NewTable("Congestion weathermap (ports that saw traffic)",
		"port", "queue_peak", "drops", "pkts_in", "pkts_out", "congested")
	for _, p := range a.weather.Ports {
		if p.QueuePeak == 0 && p.PktsIn == 0 && p.PktsOut == 0 && p.Drops == 0 {
			continue
		}
		ft := ""
		if p.Congested {
			ft = "HOT"
		}
		wt.AddRow(p.Name, p.QueuePeak, p.Drops, p.PktsIn, p.PktsOut, ft)
	}

	tables := []*trace.Table{ft, wt}
	if critTable != nil {
		tables = append(tables, critTable)
	}
	return &Result{
		ID:     "O2",
		Title:  "flow observatory fingers the hot port and heavy hitters",
		Tables: tables,
		Notes:  notes,
		Pass:   pass,
	}
}
