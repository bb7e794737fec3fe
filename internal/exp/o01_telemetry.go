package exp

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// O1 — continuous telemetry under congestion. The sampler claims to watch
// queue depths build *during* a run without perturbing it: it hangs off the
// virtual clock, reads cheap accessors, and never injects work into the
// simulation. This experiment drives a congestion storm at one CAB of a
// single-HUB system with the sampler armed and checks (a) the storm is
// visible in the sampled series — HUB input-queue bytes grow while senders
// blast the victim — and (b) the whole telemetry plane is deterministic:
// two runs of the same configuration produce byte-identical sampler CSV
// exports and identical flight-recorder tallies.

// o1Horizon bounds the run: storm from 1ms to 5ms, then drain.
const o1Horizon = 8 * sim.Millisecond

type o1Outcome struct {
	csv       []byte
	ticks     int64
	nseries   int
	frTotal   uint64
	peakQueue int64 // max sampled HUB input-queue depth, any port
	series    []*obs.Series
}

func o1Run() o1Outcome {
	sys := core.New(core.SingleHub(4),
		core.WithMetrics(),
		core.WithSampler(),
		core.WithFlightRecorder())

	// Sink on the victim CAB so storm datagrams are consumed, keeping the
	// pressure on the network rather than on mailbox drops.
	fault.DrainStorm(sys.CAB(3))

	// 256-byte datagrams stay under datalink.MaxPacketPayload, so the storm
	// is packet-switched and its backlog shows up in HUB input queues.
	inj := fault.New(sys, fault.Scenario{Name: "o1-storm", Actions: []fault.Action{
		fault.CongestionStorm{Srcs: []int{0, 1, 2}, Dst: 3,
			At: sim.Millisecond, Duration: 4 * sim.Millisecond, Size: 256},
	}})
	inj.Schedule()

	sys.RunUntil(o1Horizon)
	sys.StopTelemetry()

	var out o1Outcome
	out.csv = sys.Sampler.CSV()
	out.ticks = sys.Sampler.Ticks()
	out.series = sys.Sampler.Series()
	out.nseries = len(out.series)
	out.frTotal = sys.FR.Total()
	for _, s := range out.series {
		if len(s.Name()) > 12 && s.Name()[len(s.Name())-12:] == ".queue_bytes" && s.Max() > out.peakQueue {
			out.peakQueue = s.Max()
		}
	}
	return out
}

// O1Telemetry runs the congestion-storm telemetry experiment.
func O1Telemetry() *Result {
	a := o1Run()
	b := o1Run()

	t := trace.NewTable("Sampled series during a congestion storm (3 senders -> CAB 3)",
		"series", "points", "stride", "peak", "last")
	for _, s := range a.series {
		if s.Max() == 0 {
			continue // idle series add noise, not signal
		}
		last := s.Last()
		t.AddRow(s.Name(), len(s.Points()), s.Stride(), s.Max(), last.V)
	}

	pass := true
	var notes []string
	if a.ticks == 0 {
		pass = false
		notes = append(notes, "sampler never ticked")
	}
	if a.peakQueue == 0 {
		pass = false
		notes = append(notes, "congestion storm not visible in sampled queue depths")
	} else {
		notes = append(notes, fmt.Sprintf(
			"storm visible: peak sampled HUB input-queue depth %d bytes across %d series, %d ticks",
			a.peakQueue, a.nseries, a.ticks))
	}
	if !bytes.Equal(a.csv, b.csv) {
		pass = false
		notes = append(notes, "sampler CSV export was NOT byte-identical across two identical runs")
	} else {
		notes = append(notes, fmt.Sprintf(
			"sampler CSV byte-identical across two runs (%d bytes)", len(a.csv)))
	}
	if a.frTotal != b.frTotal {
		pass = false
		notes = append(notes, fmt.Sprintf(
			"flight-recorder totals diverged: %d vs %d events", a.frTotal, b.frTotal))
	} else {
		notes = append(notes, fmt.Sprintf("flight recorder saw %d events in both runs", a.frTotal))
	}

	return &Result{
		ID:     "O1",
		Title:  "continuous telemetry under a congestion storm",
		Tables: []*trace.Table{t},
		Notes:  notes,
		Pass:   pass,
	}
}
