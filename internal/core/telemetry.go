package core

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/sim"
)

// buildTelemetry arms the continuous-telemetry plane implied by the
// params: the virtual-time sampler and the stall watchdog (the flight
// recorder is created earlier in buildStacks, before the layers that note
// into it). Everything registers in deterministic order — HUBs then ports
// ascending, then CABs ascending — so sampler exports are byte-identical
// across runs of the same seed.
func buildTelemetry(s *System) {
	p := s.Params
	if s.Reg != nil {
		// Instrumentation self-observability: how much the bounded
		// buffers themselves have shed. trace.dropped is the event
		// recorder's overflow count; trace.spans_dropped counts spans not
		// retained by the tracer (hard limit plus tail-sampling discards).
		if s.Rec != nil {
			s.Reg.Func("trace.dropped", func() float64 { return float64(s.Rec.Dropped()) })
		}
		if s.Tr != nil {
			s.Reg.Func("trace.spans_dropped", func() float64 {
				return float64(s.Tr.Dropped() + s.Tr.TailSpansDropped())
			})
			s.Reg.Func("trace.spans_retained", func() float64 { return float64(len(s.Tr.Spans())) })
		}
		if s.FR != nil {
			s.Reg.Func("flight.events", func() float64 { return float64(s.FR.Total()) })
		}
	}
	if s.Reg != nil && p.Transport.Overload {
		// System-wide overload aggregates (per-board breakdowns live
		// under <board>.transport.overload.*).
		s.Reg.Func("overload.sheds", func() float64 {
			var n int64
			for _, c := range s.CABs {
				n += c.TP.OverloadSheds()
			}
			return float64(n)
		})
		s.Reg.Func("overload.expired", func() float64 {
			var n int64
			for _, c := range s.CABs {
				n += c.TP.OverloadExpired()
			}
			return float64(n)
		})
		s.Reg.Func("overload.breaker_open", func() float64 {
			var n int64
			for _, c := range s.CABs {
				n += c.TP.OverloadBreakerOpen()
			}
			return float64(n)
		})
	}
	if p.Sampler {
		sa := obs.NewSampler(s.Eng, DefaultSamplerPeriod, obs.DefaultSamplerCap)
		for _, h := range s.Net.Hubs() {
			for i := 0; i < h.NumPorts(); i++ {
				pt := h.Port(i)
				sa.Register(pt.EndpointName()+".queue_bytes", func() int64 {
					return int64(pt.QueueBytes())
				})
				sa.Register(pt.EndpointName()+".conn", func() int64 {
					if pt.Connected() {
						return 1
					}
					return 0
				})
				sa.Register(pt.EndpointName()+".drops", pt.Drops)
			}
			if h.Combining() {
				ce := h.CombEngine()
				sa.Register(h.Name()+".comb.slots_inuse", func() int64 {
					return int64(ce.SlotsInUse())
				})
			}
		}
		for _, c := range s.CABs {
			c := c
			name := c.Board.Name()
			sa.Register(name+".tp.inflight", c.TP.InFlight)
			sa.Register(name+".tp.window", c.TP.WindowInFlight)
			sa.Register(name+".net_credit", func() int64 {
				if c.Board.NetReady() {
					return 1
				}
				return 0
			})
			if p.Transport.Overload {
				sa.Register(name+".overload.queued", c.TP.OverloadQueued)
				sa.Register(name+".overload.sheds", c.TP.OverloadSheds)
				sa.Register(name+".overload.breaker_open", c.TP.OverloadBreakerOpen)
			}
		}
		sa.Start()
		s.Sampler = sa
	}
	if p.StallWatchdog {
		progress := func() int64 {
			var n int64
			for _, c := range s.CABs {
				n += c.TP.Completed()
			}
			return n
		}
		inflight := func() int64 {
			var n int64
			for _, c := range s.CABs {
				n += c.TP.InFlight()
			}
			return n
		}
		w := obs.NewWatchdog(s.Eng, DefaultStallCheck, progress, inflight, func(at sim.Time) {
			s.FR.Note(obs.FStall, "watchdog", inflight(), progress())
			if s.OnStall != nil {
				s.OnStall(at)
				return
			}
			fmt.Fprintf(os.Stderr, "nectar: watchdog: no transport progress with %d ops in flight at %v\n",
				inflight(), at)
			s.FR.Dump(os.Stderr)
		})
		w.Start()
		s.Watchdog = w
	}
	buildSLO(s)
}

// PromText renders everything the system exposes to a Prometheus scrape —
// the metrics registry, the sampler's latest readings and the flow table,
// each present only when armed. Call from the simulation goroutine (or
// after the run).
func (s *System) PromText() []byte {
	var b bytes.Buffer
	_ = obs.WriteProm(&b, s.Reg.Snapshot())
	obs.WriteSamplerProm(&b, s.Sampler)
	s.Flows.WriteProm(&b)
	return b.Bytes()
}
