// nectar-trace runs a small scenario with the instrumentation board
// enabled (paper §4.1: "an additional instrumentation board can be plugged
// into the backplane... it can monitor and record events related to the
// crossbar and its controller") and dumps the recorded event stream:
// connection opens/closes, command executions, packet movements, replies.
//
// With span tracing it also follows each message end-to-end across the
// layers (kernel, transport, datalink, DMA, HUB, fiber), prints the
// per-layer latency breakdown, and can export the spans as Chrome
// trace-event JSON (load it in chrome://tracing or https://ui.perfetto.dev).
//
// Usage:
//
//	nectar-trace                  # request-response exchange, one HUB
//	nectar-trace -mode circuit    # circuit-switched datalink send
//	nectar-trace -mode packet     # packet-switched datalink send
//	nectar-trace -mode multicast  # multicast over two HUBs
//	nectar-trace -limit 200       # retain the last 200 events
//	nectar-trace -out trace.json  # write Chrome trace-event JSON
//	nectar-trace -metrics         # print the metrics registry snapshot
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/hub"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: flags from args, the report on stdout,
// diagnostics on stderr, the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nectar-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "reqresp", "reqresp | circuit | packet | multicast")
	limit := fs.Int("limit", 100, "retain the last N events")
	size := fs.Int("size", 128, "payload bytes")
	out := fs.String("out", "", "write spans as Chrome trace-event JSON to this file")
	metrics := fs.Bool("metrics", false, "print the metrics registry snapshot")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{{"limit", *limit, 1}, {"size", *size, 0}} {
		if f.val < f.min {
			fmt.Fprintf(stderr, "-%s %d: must be at least %d\n", f.name, f.val, f.min)
			return 2
		}
	}

	switch *mode {
	case "reqresp", "circuit", "packet", "multicast":
	default:
		fmt.Fprintf(stderr, "unknown mode %q (want reqresp, circuit, packet, or multicast)\n", *mode)
		return 2
	}

	params := core.DefaultParams()
	params.RecorderLimit = *limit
	params.TraceSpans = 4096
	params.Metrics = true

	var sys *core.System
	if *mode == "multicast" {
		sys = core.New(core.Line(2, 2), core.WithParams(params))
	} else {
		sys = core.New(core.SingleHub(4), core.WithParams(params))
	}

	if *mode != "reqresp" {
		// Raw datalink modes: replace the transport receiver with a
		// delivery printer (reqresp needs the real transport in place).
		for i := 1; i < sys.NumCABs(); i++ {
			st := sys.CAB(i)
			st.DL.SetReceiver(func(p []byte, _ *trace.Span) {
				fmt.Fprintf(stdout, "-- CAB %d datalink delivered %d bytes at %v\n",
					st.Board.ID(), len(p), st.Kernel.Engine().Now())
			})
		}
	}

	tx := sys.CAB(0)
	switch *mode {
	case "reqresp":
		// A full transport-level request-response exchange: the server
		// echoes the request back. This exercises every layer in both
		// directions, so the span trace covers the complete round trip.
		srv := sys.CAB(1)
		mb := srv.Kernel.NewMailbox("srv", 1024*1024)
		srv.TP.Register(1, mb)
		srv.Kernel.Spawn("server", func(th *kernel.Thread) {
			req := mb.Get(th)
			data := req.Bytes()
			mb.Release(req)
			srv.TP.Respond(th, req, data)
		})
		tx.Kernel.Spawn("client", func(th *kernel.Thread) {
			t0 := th.Proc().Now()
			resp, err := tx.TP.Request(th, 1, 1, 2, make([]byte, *size))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			fmt.Fprintf(stdout, "-- CAB 0 got %d-byte response, round trip %v\n",
				len(resp), th.Proc().Now()-t0)
		})
	case "circuit", "packet", "multicast":
		tx.Kernel.Spawn("tx", func(th *kernel.Thread) {
			var err error
			switch *mode {
			case "circuit":
				err = tx.DL.SendCircuit(th, 1, make([]byte, *size))
			case "packet":
				err = tx.DL.SendPacket(th, 1, make([]byte, *size))
			case "multicast":
				err = tx.DL.SendMulticastCircuit(th, []int{1, 2, 3}, make([]byte, *size))
			}
			if err != nil {
				fmt.Fprintln(stderr, err)
			}
		})
	}
	sys.Run()

	fmt.Fprintf(stdout, "\ninstrumentation board event log (%s send):\n", *mode)
	hub.WriteLog(stdout, sys.Board)
	fmt.Fprintf(stdout, "\nevent counts: conn-open=%d conn-close=%d command=%d packet-out=%d reply=%d drops=%d\n",
		sys.Board.Count(obs.FConnOpen), sys.Board.Count(obs.FConnClose),
		sys.Board.Count(obs.FCommand), sys.Board.Count(obs.FPacketOut),
		sys.Board.Count(obs.FReply), sys.Board.Count(obs.FPacketDrop))

	if spans := sys.Tr.Spans(); len(spans) > 0 {
		fmt.Fprintf(stdout, "\nper-layer span breakdown (%d spans, %d dropped):\n", len(spans), sys.Tr.Dropped())
		t := trace.NewTable("", "layer", "spans", "total", "busy (merged)")
		for _, st := range trace.Breakdown(spans) {
			t.AddRow(st.Layer, st.Spans, st.Total, st.Busy)
		}
		fmt.Fprint(stdout, t.String())
	}

	if *metrics {
		fmt.Fprintf(stdout, "\nmetrics registry snapshot:\n%s", sys.Reg.Text())
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := sys.Tr.WriteChrome(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote Chrome trace-event JSON to %s (open in chrome://tracing or ui.perfetto.dev)\n", *out)
	}
	return 0
}
