package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// R1 — robustness under injected faults. The paper's §4 claims HUB
// commands support "testing, reconfiguration, and recovery from hardware
// failures"; this experiment exercises the automated form of that claim:
// corner-to-corner traffic on a 2x2 HUB mesh runs through scripted fault
// scenarios — an inter-HUB link flap, a corruption burst, a stuck output
// register, a sender-CAB crash and reboot, a congestion storm — with the
// detection stack (datalink link probing, transport heartbeats, bounded
// retransmission with backoff) doing all recovery. The claim checked: every
// application message is delivered in every scenario with zero manual
// steps, and the seeded runs are byte-reproducible.

// r1Horizon bounds each scenario run.
const r1Horizon = 120 * sim.Millisecond

// r1Msgs is the number of corner-to-corner application messages.
const r1Msgs = 25

// r1Scenario is one row of the table: R1's display name and the
// fault-catalogue scenario behind it ("" for the fault-free baseline).
type r1Scenario struct {
	name, catalogue string
}

func r1Scenarios() []r1Scenario {
	return []r1Scenario{
		{"baseline", ""},
		{"link-flap", "linkflap"},
		{"corruption", "corruption"},
		{"port-stuck", "portstuck"},
		// The sender CAB dies mid-run and reboots cold; its application
		// thread survives the crash (a model simplification) and resumes
		// retrying.
		{"sender-crash", "crash"},
		{"congestion-storm", "storm"},
	}
}

// r1Seed seeds the scenarios that draw random numbers (the corruption burst).
const r1Seed = 99

// r1Outcome reports one scenario's delivery and recovery figures.
type r1Outcome struct {
	*fault.TrainOutcome
	detectMean  sim.Time
	recoverMean sim.Time
	detections  int
	recoveries  int
	crashes     int64
	snapshot    string
}

// r1Run executes one scenario: the message train corner to corner (CAB 0 to
// CAB 3), the scenario scheduled against it, all recovery automatic.
func r1Run(sc r1Scenario) r1Outcome {
	sys := core.New(core.Mesh(2, 2, 1), fault.TrainOptions()...)

	faults := fault.Scenario{Name: sc.name}
	if sc.catalogue != "" {
		var err error
		if faults, err = fault.Named(sc.catalogue, r1Seed, sys); err != nil {
			panic(err) // a 2x2 mesh has every target the catalogue names
		}
	}
	inj := fault.New(sys, faults)
	inj.Schedule()
	out := r1Outcome{TrainOutcome: fault.StartTrain(sys, fault.Train{From: 0, To: 3, Msgs: r1Msgs})}

	sys.RunUntil(r1Horizon)

	out.detectMean = inj.DetectLatency().Mean()
	out.recoverMean = inj.RecoveryTime().Mean()
	out.detections = inj.DetectLatency().Count()
	out.recoveries = inj.RecoveryTime().Count()
	out.crashes = sys.CAB(0).Board.Crashes()
	out.snapshot = sys.Reg.Text()
	return out
}

// R1Fault runs every chaos scenario and checks the recovery claim.
func R1Fault() *Result {
	t := trace.NewTable("Fault injection: goodput and recovery (paper section 4)",
		"scenario", "delivered", "dup", "completed at", "detect mean", "recover mean", "goodput")
	pass := true
	var notes []string
	for _, sc := range r1Scenarios() {
		o := r1Run(sc)
		goodput := "n/a"
		if o.DoneAt > 0 {
			goodput = fmt.Sprintf("%.1f msg/ms", float64(o.Delivered)/float64(o.DoneAt)*float64(sim.Millisecond))
		}
		detect, recover := "-", "-"
		if o.detections > 0 {
			detect = fmt.Sprint(o.detectMean)
		}
		if o.recoveries > 0 {
			recover = fmt.Sprint(o.recoverMean)
		}
		t.AddRow(sc.name, fmt.Sprintf("%d/%d", o.Delivered, r1Msgs), o.Duplicates,
			o.DoneAt, detect, recover, goodput)
		if o.Delivered != r1Msgs || o.DoneAt == 0 {
			pass = false
			notes = append(notes, fmt.Sprintf("%s: %d/%d messages delivered", sc.name, o.Delivered, r1Msgs))
		}
		switch sc.name {
		case "link-flap":
			// The headline claim: mesh corner traffic survives an
			// inter-HUB link failure with zero manual steps — the probe
			// layer must both detect and (post-repair) restore.
			if o.detections == 0 || o.recoveries == 0 {
				pass = false
				notes = append(notes, fmt.Sprintf(
					"link-flap: detections=%d recoveries=%d (want both > 0)", o.detections, o.recoveries))
			}
		case "sender-crash":
			if o.crashes != 1 {
				pass = false
				notes = append(notes, fmt.Sprintf("sender-crash: crash count %d", o.crashes))
			}
		}
	}

	// Byte-reproducibility: the same scenario twice must produce an
	// identical registry snapshot (the full observable run).
	a := r1Run(r1Scenarios()[1])
	b := r1Run(r1Scenarios()[1])
	if a.snapshot != b.snapshot {
		pass = false
		notes = append(notes, "link-flap replay was not byte-identical")
	} else {
		notes = append(notes, "link-flap replay byte-identical across runs")
	}
	notes = append(notes,
		"recovery is fully automatic: probe layer fails/restores routes, heartbeats revive peers; the application only retries")

	return &Result{
		ID:     "R1",
		Title:  "fault injection, detection, and automatic recovery",
		Tables: []*trace.Table{t},
		Notes:  notes,
		Pass:   pass,
	}
}
