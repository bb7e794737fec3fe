package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/trace"
)

// repSpec says what one rep does. A rep is one fresh system: build,
// simulated warm-up, then Slices measured slices of equal simulated length.
type repSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Slices is the number of measured slices; 0 makes a set-up-only rep,
	// which stops one tick after the warm-up.
	Slices int `json:"slices"`
	// Traced adds span tracing and the metrics registry.
	Traced bool `json:"traced"`
	// Short uses the smoke test's millisecond windows.
	Short bool `json:"short"`
}

// boundary is what the harness reads at the end of every slice: a clock
// and three loads, so that a slice can be a few host-ms long. All fields
// are cumulative since the start of the rep.
type boundary struct {
	WallNs  int64  `json:"wall_ns"`
	Events  uint64 `json:"events"`
	Pending int    `json:"pending"`
	Ops     int64  `json:"ops"`
}

// procStats is what the harness reads of its own process at the two ends
// of the window, outside it. All fields are cumulative.
type procStats struct {
	CPUNs int64 `json:"cpu_ns"` // user+system
	// GCCPUNs is the runtime's own account of the CPU time it spent
	// collecting (mark workers, assists, pauses), as of the last cycle
	// that ended.
	GCCPUNs    int64  `json:"gc_cpu_ns"`
	Mallocs    uint64 `json:"mallocs"`
	TotalAlloc uint64 `json:"total_alloc"`
	NumGC      uint32 `json:"num_gc"`
}

// A counter names one public per-layer counter, summed over the whole system.
type counter int

const (
	kernelSwitches counter = iota

	tpAcks
	tpRetransmits
	tpRTOExpiries
	tpChecksumDrops
	tpDupRequests
	tpMailboxDrops

	dlPackets
	dlBytes
	dlOpenTimeouts
	dlOpenFailures

	hubForwards
	hubDrops

	fiberItems
	fiberBytes
	fiberDamaged

	dmaTransfers
	dmaBytes

	flightEvents
	samplerPoints

	// Gauges: since keeps their end value.
	hubPeakQueue // max over ports, not a sum
	flowsTracked

	numCounters
	firstGauge = hubPeakQueue
)

type counts [numCounters]int64

// since is the counters' growth from a to c.
func (c counts) since(a counts) counts {
	for i := counter(0); i < firstGauge; i++ {
		c[i] -= a[i]
	}
	return c
}

func readCounts(sys *core.System) counts {
	var c counts
	for _, st := range sys.CABs {
		c[kernelSwitches] += st.Kernel.Switches()
		ts := st.TP.Stats()
		c[tpAcks] += ts.AcksSent
		c[tpRetransmits] += ts.Retransmits
		c[tpRTOExpiries] += ts.RTOExpiries
		c[tpChecksumDrops] += ts.ChecksumDrops
		c[tpDupRequests] += ts.DupRequests
		c[tpMailboxDrops] += ts.MailboxDrops
		ds := st.DL.Stats()
		c[dlPackets] += ds.PacketsSent
		c[dlBytes] += ds.BytesSent
		c[dlOpenTimeouts] += ds.OpenTimeouts
		c[dlOpenFailures] += ds.OpenFailures
		for ch := cab.ChanFiberOut; ch <= cab.ChanVME; ch++ {
			c[dmaTransfers] += st.Board.DMA.Transfers(ch)
			c[dmaBytes] += st.Board.DMA.Bytes(ch)
		}
		up, down := sys.Net.CABLinks(st.Board.ID())
		c.addLinks(up, down)
	}
	for _, e := range sys.Net.InterHubEdges() {
		c.addLinks(sys.Net.InterHubLinks(e[0], e[1]))
	}
	for _, h := range sys.Net.Hubs() {
		for i := 0; i < h.NumPorts(); i++ {
			p := h.Port(i)
			c[hubForwards] += p.PacketsForwarded()
			c[hubDrops] += p.Drops()
			c[hubPeakQueue] = max(c[hubPeakQueue], int64(p.PeakQueueBytes()))
		}
	}
	c[flightEvents] = int64(sys.FR.Total())
	c[samplerPoints] = sys.Sampler.Ticks() * int64(len(sys.Sampler.Series()))
	c[flowsTracked] = int64(sys.Flows.Len())
	return c
}

func (c *counts) addLinks(links ...*fiber.Link) {
	for _, l := range links {
		c[fiberItems] += l.Items()
		c[fiberBytes] += l.BytesSent()
		c[fiberDamaged] += l.ErrorsInjected()
	}
}

// repResult is everything one rep measured. It crosses the process
// boundary as one JSON line.
type repResult struct {
	Spec repSpec `json:"spec"`

	BuildNs int64 `json:"build_ns"` // core.New alone
	// SetupNs is core.New + load install + warm-up, in phases: up to the
	// first tick, then one per further warm-up tick. A phase is the same
	// work in every rep of one seed.
	SetupNs []int64 `json:"setup_ns"`
	// Bounds has Slices+1 entries: the start of the window and the end of
	// every slice.
	Bounds []boundary `json:"bounds"`

	SimWindowNs int64  `json:"sim_window_ns"`
	Ops         int64  `json:"ops"`
	Errors      int64  `json:"errors"`
	Shed        int64  `json:"shed"`
	Goodput     int64  `json:"goodput"`
	CollSteps   int64  `json:"coll_steps"`
	Digest      uint64 `json:"digest"`

	LatCount    int     `json:"lat_count"`
	LatRetained int     `json:"lat_retained"`
	P50Ns       int64   `json:"p50_ns"`
	TailNs      int64   `json:"tail_ns"`
	TailQ       float64 `json:"tail_q"`

	LiveBytes uint64 `json:"live_bytes"` // HeapAlloc after a forced GC

	Start     counts    `json:"start"` // counters at the start of the window
	End       counts    `json:"end"`   // and at its end
	StartProc procStats `json:"start_proc"`
	EndProc   procStats `json:"end_proc"`

	AllreduceP50Ns int64 `json:"allreduce_p50_ns,omitempty"` // needs the metrics registry

	// Traced reps only. The tracer retains a bounded number of spans, so
	// the self times cover the first SelfSlices slices of the window, in
	// which SelfOps operations completed and SelfSpans spans started.
	LayerSelfNs map[string]int64 `json:"layer_self_ns,omitempty"`
	SelfSlices  int              `json:"self_slices,omitempty"`
	SelfOps     int64            `json:"self_ops,omitempty"`
	SelfSpans   int              `json:"self_spans,omitempty"`

	Spans []hspan `json:"spans"`
}

// tracedSpans is the retained-span bound of a traced rep: large enough
// that a whole smoke-sized window is kept, small enough that the full-size
// one keeps its first ~1e5 operations and drops the rest.
const tracedSpans = 1 << 21

var origin = time.Now()

func wallNs() int64 { return int64(time.Since(origin)) }

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var gcCPUSeconds = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procStats{CPUNs: cpuNs(), Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc, NumGC: ms.NumGC}
	if metrics.Read(gcCPUSeconds); gcCPUSeconds[0].Value.Kind() == metrics.KindFloat64 {
		p.GCCPUNs = int64(gcCPUSeconds[0].Value.Float64() * 1e9)
	}
	return p
}

// tailQuantile is the highest percentile of the ladder with at least ten
// retained samples beyond it. The ladder stops at p99.9: latencyCap keeps
// between 65536 and 131072 samples of a long window, which would put the
// next rung's threshold (100000) inside the range seeds move it over.
func tailQuantile(retained int) float64 {
	q := 0.9
	for _, c := range []float64{0.99, 0.999} {
		if float64(retained)*(1-c) >= 10 {
			q = c
		}
	}
	return q
}

// runRep builds one system and measures it. It is called in a child
// process by the benchmark and in-process by the smoke test.
func runRep(spec repSpec) (*repResult, error) {
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	tick, warmTicks, topology := w.tick, w.warm, w.topo
	if spec.Short {
		tick, warmTicks = w.shortTick, 2
		if w.shortTopo != nil {
			topology = w.shortTopo
		}
	}
	slices := spec.Slices
	res := &repResult{Spec: spec, SimWindowNs: int64(tick) * int64(slices)}
	rec := newSpanRecorder(fmt.Sprintf("rep seed=%d traced=%v slices=%d", spec.Seed, spec.Traced, slices))

	opts := w.opts(spec.Seed)
	if spec.Traced {
		opts = append(opts, core.WithMetrics(), func(p *core.Params) { p.TraceSpans = tracedSpans })
	}

	t0 := wallNs()
	build := rec.begin(rec.root, "build")
	sys := core.New(topology(), opts...)
	rec.end(build)
	res.BuildNs = wallNs() - t0

	cfg := w.cfg(spec.Seed)
	cfg.Warmup = tick * sim.Time(warmTicks)
	cfg.Duration = tick * sim.Time(slices)
	if slices == 0 {
		cfg.Duration = tick // load.Run cannot stop at the end of the warm-up
	}
	cfg.LatencyCap = latencyCap
	cfg.TickEvery = tick
	res.Bounds = make([]boundary, 0, slices+1)
	warm := rec.begin(rec.root, "warmup")
	var cur int
	phaseStart := t0
	cfg.OnTick = func(tk load.Tick) {
		now := wallNs()
		n := int(tk.Now/tick) - warmTicks // slices into the measured window
		if n <= 0 {
			res.SetupNs = append(res.SetupNs, now-phaseStart)
			phaseStart = now
		}
		if n < 0 || n > slices {
			return
		}
		if n == 0 {
			rec.end(warm)
		} else {
			rec.end(cur)
		}
		if slices == 0 {
			return
		}
		if n == 0 {
			// Before the window's first clock read: every rep starts
			// its window just after a whole collection, so that the
			// set-up's garbage is not collected at the window's cost
			// and all reps meet the collector in the same state.
			gc := rec.begin(rec.root, "start-gc")
			runtime.GC()
			rec.end(gc)
			res.Start, res.StartProc = readCounts(sys), readProcStats()
			now = wallNs()
		}
		res.Bounds = append(res.Bounds, boundary{WallNs: now, Events: sys.Eng.Executed(), Pending: sys.Eng.Pending(), Ops: tk.Ops})
		if n < slices {
			cur = rec.begin(rec.root, fmt.Sprintf("slice[%d]", n))
		} else { // after the window's last clock read
			res.EndProc, res.End = readProcStats(), readCounts(sys)
		}
	}
	lr := load.Run(sys, cfg)

	if slices > 0 {
		if len(res.Bounds) != slices+1 {
			return nil, fmt.Errorf("%s: saw %d slice boundaries, want %d", w.name, len(res.Bounds), slices+1)
		}
		res.Ops, res.Errors, res.Shed = lr.Ops, lr.Errors, lr.Shed
		res.Goodput, res.CollSteps, res.Digest = lr.Goodput, lr.CollSteps, lr.Digest
		res.LatCount, res.LatRetained = lr.Latency.Count(), lr.Latency.Retained()
		res.TailQ = tailQuantile(res.LatRetained)
		res.P50Ns = int64(lr.Latency.Quantile(0.5))
		res.TailNs = int64(lr.Latency.Quantile(res.TailQ))
		if spec.Traced {
			mark := tick * sim.Time(warmTicks)
			spans := sys.Tr.Spans()
			res.SelfSlices = slices
			if sys.Tr.Dropped() > 0 {
				res.SelfSlices = int((spans[len(spans)-1].Start() - mark) / tick)
			}
			if res.SelfSlices < 1 {
				return nil, fmt.Errorf("%s: %d retained spans do not cover one slice", w.name, len(spans))
			}
			res.SelfOps = res.Bounds[res.SelfSlices].Ops
			res.LayerSelfNs, res.SelfSpans = layerSelfTime(spans, mark, mark+tick*sim.Time(res.SelfSlices))
		}
		if h := sys.Reg.Histogram("coll.allreduce.latency"); h.Count() > 0 {
			res.AllreduceP50Ns = int64(h.Quantile(0.5))
		}
		gc := rec.begin(rec.root, "final-gc")
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.LiveBytes = ms.HeapAlloc
		rec.end(gc)
	}
	runtime.KeepAlive(sys)
	res.Spans = rec.finish()
	return res, nil
}

// layerSelfTime sums, per layer, the self time of the ended spans that
// started in [from, to): a span's duration minus the part of it that its
// child spans cover. It also returns how many spans it counted.
func layerSelfTime(spans []*trace.Span, from, to sim.Time) (map[string]int64, int) {
	kids := make(map[*trace.Span][]*trace.Span)
	for _, s := range spans {
		if p := s.Parent(); p != nil && s.Ended() {
			kids[p] = append(kids[p], s)
		}
	}
	self := make(map[string]int64)
	n := 0
	for _, s := range spans {
		if !s.Ended() || s.Start() < from || s.Start() >= to {
			continue
		}
		d := s.Duration()
		if k := kids[s]; len(k) > 0 {
			// What the children cover outside the span's own interval
			// (a child may outlive its parent) is in both unions.
			d = trace.Union(append(k[:len(k):len(k)], s)) - trace.Union(k)
		}
		self[s.Layer()] += int64(d)
		n++
	}
	return self, n
}
