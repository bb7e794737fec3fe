// nectar-top is the congestion observatory's console: it runs a mesh under
// a configurable congestion storm with the full observatory armed — flow
// accounting with the heavy-hitter sketch, per-port queue telemetry, span
// tracing — and prints who is talking to whom (top flows), where it hurts
// (the weathermap), and where the latency went (per-hop critical-path
// attribution of the p50/p99 request and the aggregate over the storm
// window).
//
// Usage:
//
//	nectar-top                     # 2x2 mesh, 3 CABs/HUB, 8ms, storm on
//	nectar-top -rows 1 -cols 2     # smaller fabric
//	nectar-top -storm=false        # just the background request traffic
//	nectar-top -json               # machine-readable report
//	nectar-top -out report.txt     # also write the report to a file
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs/flow"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// report is the -json shape.
type report struct {
	Config struct {
		Rows, Cols, Per int
		DurationMs      float64
		Storm           bool
		StormSrcs       []int `json:",omitempty"`
		StormDst        int
	}
	Flows      []flowRow         `json:"flows"`
	Top        []flow.TopEntry   `json:"top"`
	Weathermap *flow.Weathermap  `json:"weathermap"`
	P99        *pathReport       `json:"p99,omitempty"`
	P50        *pathReport       `json:"p50,omitempty"`
	Aggregate  []trace.PathSlice `json:"aggregate,omitempty"`
	Requests   int               `json:"requests"`

	SLO       []slo.ObjectiveStatus `json:"slo,omitempty"`
	SLOAlerts []slo.Alert           `json:"slo_alerts,omitempty"`
	Bundles   int                   `json:"slo_bundles,omitempty"`
}

type flowRow struct {
	Src, Dst, Proto            string
	Frames, Bytes, Retransmits int64
	QueueNs                    int64
}

type pathReport struct {
	TotalNs int64             `json:"total_ns"`
	Slices  []trace.PathSlice `json:"slices"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: flags from args, the report on stdout,
// diagnostics on stderr, the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nectar-top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rows := fs.Int("rows", 2, "mesh rows")
	cols := fs.Int("cols", 2, "mesh columns")
	per := fs.Int("per", 3, "CABs per HUB")
	durMs := fs.Float64("duration", 8, "simulated run length, ms")
	storm := fs.Bool("storm", true, "blast the last CAB from its hub-local neighbors mid-run")
	size := fs.Int("size", 512, "storm datagram payload bytes")
	k := fs.Int("k", 0, "heavy-hitter sketch size (0 = default)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	outPath := fs.String("out", "", "also write the report to this file")
	sloOn := fs.Bool("slo", false, "arm the SLO engine on the request traffic (p99 < -slobound) with tail-sampled tracing; adds status, the alert stream, and bundle capture to the report")
	sloBound := fs.Duration("slobound", 100*time.Microsecond, "SLO latency bound for -slo")
	sloDump := fs.String("slodump", "", "with -slo: write the first diagnosis bundle captured at alert time to this file as JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{{"rows", *rows, 1}, {"cols", *cols, 1}, {"per", *per, 1}, {"size", *size, 0}} {
		if f.val < f.min {
			fmt.Fprintf(stderr, "-%s %d: must be at least %d\n", f.name, f.val, f.min)
			return 2
		}
	}
	if *durMs <= 0 {
		fmt.Fprintf(stderr, "-duration %v: must be positive\n", *durMs)
		return 2
	}

	opts := []core.Option{
		core.WithMetrics(),
		core.WithObservatory(),
		core.WithFlows(*k),
		func(p *core.Params) { p.TraceSpans = 400000 },
	}
	if *sloOn {
		opts = append(opts, core.WithSLO(slo.Params{Objectives: []slo.Objective{{
			Name: "reqresp", Kind: slo.KindReqResp, Class: slo.AnyClass,
			LatencyBound: sim.Time(sloBound.Nanoseconds()),
		}}}))
	}
	sys := core.New(core.Mesh(*rows, *cols, *per), opts...)
	n := sys.NumCABs()
	if n < 3 {
		fmt.Fprintln(stderr, "need at least 3 CABs (one client, one victim, one blaster)")
		return 2
	}
	victimID := n - 1
	horizon := sim.Time(*durMs * float64(sim.Millisecond))
	stormAt, stormDur := horizon/8, horizon/2

	// The hot spot: a paced client on CAB 0 sends a request every 100us to
	// the last CAB, so the span trace holds a steady stream of cross-fabric
	// messages for the critical-path post-processor; the storm is the
	// victim's hub-local neighbors blasting it with datagrams, so all
	// contention converges on its HUB's output register.
	hs := fault.HotSpot{Client: 0, Victim: victimID, Every: 100 * sim.Microsecond, Size: *size}
	if *storm {
		hs.At, hs.Duration = stormAt, stormDur
		base := (victimID / *per) * *per
		for c := base; c < base+*per && len(hs.Srcs) < 2; c++ {
			if c != victimID && c != 0 {
				hs.Srcs = append(hs.Srcs, c)
			}
		}
	}
	hot := fault.StartHotSpot(sys, hs)

	sys.RunUntil(horizon)
	sys.StopTelemetry()

	if *sloDump != "" {
		if bundles := sys.SLO.Bundles(); len(bundles) > 0 {
			if err := os.WriteFile(*sloDump, bundles[0].JSON(), 0o644); err != nil {
				fmt.Fprintln(stderr, "slodump:", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote diagnosis bundle to %s\n", *sloDump)
		} else {
			fmt.Fprintln(stderr, "slodump: no alert fired, no bundle captured")
		}
	}

	// Post-process: the client's requests inside the storm window (whole
	// run when the storm is off).
	p50, p99 := hot.CriticalPath(0.50), hot.CriticalPath(0.99)
	all := hot.CriticalPaths()
	agg := trace.AggregatePaths(all)
	weather := sys.Weathermap()

	if *jsonOut {
		rep := &report{}
		rep.Config.Rows, rep.Config.Cols, rep.Config.Per = *rows, *cols, *per
		rep.Config.DurationMs = *durMs
		rep.Config.Storm = *storm
		rep.Config.StormSrcs = hs.Srcs
		rep.Config.StormDst = victimID
		for _, r := range sys.Flows.Records() {
			rep.Flows = append(rep.Flows, flowRow{
				Src:    fmt.Sprintf("cab%d", r.Src),
				Dst:    dstLabel(r.Dst),
				Proto:  sys.Flows.ProtoName(r.Proto),
				Frames: r.Frames, Bytes: r.Bytes, Retransmits: r.Retransmits,
				QueueNs: int64(r.Queue),
			})
		}
		rep.Top = sys.Flows.Top()
		rep.Weathermap = weather
		rep.P50 = pathJSON(p50)
		rep.P99 = pathJSON(p99)
		rep.Aggregate = agg
		rep.Requests = hot.Requests
		if sys.SLO != nil {
			rep.SLO = sys.SLO.Status()
			rep.SLOAlerts = sys.SLO.Alerts()
			rep.Bundles = len(sys.SLO.Bundles())
		}
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "encode:", err)
			return 1
		}
		blob = append(blob, '\n')
		stdout.Write(blob)
		return writeOut(stderr, *outPath, blob)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "nectar-top: %dx%d mesh, %d CABs/HUB, %d requests over %v\n",
		*rows, *cols, *per, hot.Requests, horizon)
	if *storm {
		fmt.Fprintf(&b, "storm: CABs %v -> cab%d, %v..%v, %dB datagrams\n",
			hs.Srcs, victimID, stormAt, stormAt+stormDur, *size)
	}
	b.WriteString("\n")
	b.WriteString(sys.Flows.Text(16))
	b.WriteString("\n")
	b.WriteString(weather.Text())
	b.WriteString("\n")
	if sys.SLO != nil {
		b.WriteString(sys.SLO.Text())
		fmt.Fprintf(&b, "tail sampling: %d/%d trees kept, %d spans retained, %d spans dropped, %d bundle(s)\n\n",
			sys.Tr.TailKept(), sys.Tr.TailRoots(), len(sys.Tr.Spans()),
			sys.Tr.TailSpansDropped(), len(sys.SLO.Bundles()))
	}
	if p99 != nil {
		fmt.Fprintf(&b, "p99 request %s", p99.String())
		fmt.Fprintf(&b, "p50 request %s", p50.String())
		fmt.Fprintf(&b, "aggregate over %d requests in the window:\n", len(all))
		var total sim.Time
		for _, pb := range all {
			total += pb.Total
		}
		for _, s := range agg {
			pct := float64(0)
			if total > 0 {
				pct = 100 * float64(s.Time) / float64(total)
			}
			fmt.Fprintf(&b, "  %-16s %-12s %12v  %5.1f%%\n", s.Comp, s.Kind, s.Time, pct)
		}
	} else {
		b.WriteString("no traced requests completed in the window\n")
	}
	io.WriteString(stdout, b.String())
	return writeOut(stderr, *outPath, []byte(b.String()))
}

func dstLabel(d uint16) string {
	if d == flow.McastDst {
		return "*"
	}
	return fmt.Sprintf("cab%d", d)
}

func pathJSON(p *trace.PathBreakdown) *pathReport {
	if p == nil {
		return nil
	}
	return &pathReport{TotalNs: int64(p.Total), Slices: p.Slices}
}

// writeOut copies the report to path (when set) and returns the exit status.
func writeOut(stderr io.Writer, path string, blob []byte) int {
	if path == "" {
		return 0
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fmt.Fprintln(stderr, "write:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote report to %s\n", path)
	return 0
}
