package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// R2 — graceful degradation under overload (brownout). The CAB offloads
// protocol work precisely so the backplane stays responsive when hosts are
// saturated (paper §3-4); this experiment checks the overload-control
// subsystem delivers on that under a sustained 2x open-loop overload. A
// 2x2 HUB mesh carries a 10/60/30 critical/normal/bulk class mix, every
// operation deadline-stamped, in three runs of the identical workload:
//
//   - unloaded: the nominal 1x rate, overload control off — the
//     baseline critical-class p99 a healthy system provides;
//   - uncontrolled: 2x capacity, overload control off — every queue
//     grows, everything waits, completions land past their deadlines;
//   - controlled: 2x capacity, overload control on — admission control
//     sheds bulk (and under pressure normal) with deterministic
//     fast-rejects, deadline checks drop dead work at every queueing
//     point, and the weighted-deficit scheduler keeps critical moving.
//
// Claims checked: critical p99 stays within 1.5x its unloaded baseline,
// goodput (bytes of on-time completions) beats the uncontrolled run, sheds
// hit only bulk/normal (never critical), and both controlled and
// uncontrolled runs replay byte-identically.

const (
	r2Seed = 21
	// Warmup is generous so the measured window sees steady-state overload
	// control, not the arrival transient while queues and controllers fill.
	r2Warmup = 3 * sim.Millisecond
	r2Window = 25 * sim.Millisecond
	// r2OverloadRate is 2x the mesh's measured saturation throughput for
	// this mix (closed-loop probe: ~23k ops/s aggregate over 4 CABs);
	// r2UnloadedRate is the nominal 1x rate the same mesh carries with
	// headroom.
	r2OverloadRate = 11500.0
	r2UnloadedRate = 2875.0
)

// r2Config is the workload: identical across runs, only the rate and the
// system's overload parameters vary.
func r2Config(rate float64) load.Config {
	cfg := load.Config{
		Seed:       r2Seed,
		Arrival:    load.OpenLoop,
		RatePerCAB: rate,
		// Deep enough that overload actually backs up in the system
		// rather than being silently clipped at the source.
		MaxOutstanding: 512,
		Warmup:         r2Warmup,
		Duration:       r2Window,
		Mix:            load.Mix{ReqResp: 70, Stream: 20, VMTP: 10},
		StreamBytes:    4096,
		Classes:        load.ClassMix{Critical: 10, Normal: 60, Bulk: 30},
	}
	cfg.ClassDeadlines[transport.ClassCritical] = 2 * sim.Millisecond
	cfg.ClassDeadlines[transport.ClassNormal] = sim.Millisecond
	cfg.ClassDeadlines[transport.ClassBulk] = 500 * sim.Microsecond
	return cfg
}

// r2Outcome is one run's distilled figures.
type r2Outcome struct {
	res        *load.Result
	critP99    sim.Time
	shedsCrit  int64
	shedsNorm  int64
	shedsBulk  int64
	expired    int64
	breakerOps int64
}

func r2Run(rate float64, controlled bool) r2Outcome {
	opts := []core.Option{}
	if controlled {
		// Brownout policy: deadline enforcement drops dead work at every
		// queueing point before it burns fiber credit, the sojourn
		// controller sheds lowest-class-first when the CAB send queue stops
		// draining, and the weighted-deficit scheduler keeps critical
		// moving.
		opts = append(opts, core.WithOverloadControl())
	}
	sys := core.New(core.Mesh(2, 2, 1), opts...)
	res := load.Run(sys, r2Config(rate))
	o := r2Outcome{res: res, critP99: res.ClassLatency[transport.ClassCritical].Quantile(0.99)}
	for _, c := range sys.CABs {
		o.shedsCrit += c.TP.OverloadShedsClass(transport.ClassCritical)
		o.shedsNorm += c.TP.OverloadShedsClass(transport.ClassNormal)
		o.shedsBulk += c.TP.OverloadShedsClass(transport.ClassBulk)
		o.expired += c.TP.OverloadExpired()
		o.breakerOps += c.TP.OverloadBreakerTrips()
	}
	return o
}

// R2Overload runs the brownout scenario and checks the graceful-degradation
// claims.
func R2Overload() *Result {
	unloaded := r2Run(r2UnloadedRate, false)
	uncontrolled := r2Run(r2OverloadRate, false)
	controlled := r2Run(r2OverloadRate, true)

	t := trace.NewTable("Brownout: 2x open-loop overload, 10/60/30 critical/normal/bulk (2x2 mesh)",
		"run", "ops", "err", "goodput KB", "crit p99 us", "sheds c/n/b", "expired")
	row := func(name string, o r2Outcome) {
		t.AddRow(name, o.res.Ops, o.res.Errors,
			fmt.Sprintf("%.1f", float64(o.res.Goodput)/1e3),
			fmt.Sprintf("%.1f", float64(o.critP99)/1e3),
			fmt.Sprintf("%d/%d/%d", o.shedsCrit, o.shedsNorm, o.shedsBulk),
			o.expired)
	}
	row("unloaded (off)", unloaded)
	row("2x uncontrolled (off)", uncontrolled)
	row("2x controlled (on)", controlled)

	pass := true
	var notes []string
	fail := func(format string, args ...interface{}) {
		pass = false
		notes = append(notes, fmt.Sprintf(format, args...))
	}

	// Critical-class latency must stay bounded under overload: p99 within
	// 1.5x the unloaded baseline.
	if limit := unloaded.critP99 + unloaded.critP99/2; controlled.critP99 > limit {
		fail("critical p99 %v exceeds 1.5x unloaded baseline %v", controlled.critP99, unloaded.critP99)
	} else {
		notes = append(notes, fmt.Sprintf(
			"critical p99 under 2x overload: %v controlled vs %v uncontrolled (unloaded baseline %v)",
			controlled.critP99, uncontrolled.critP99, unloaded.critP99))
	}

	// Shedding dead and low-priority work must buy goodput, not just lower
	// latency.
	if controlled.res.Goodput <= uncontrolled.res.Goodput {
		fail("controlled goodput %d not above uncontrolled %d",
			controlled.res.Goodput, uncontrolled.res.Goodput)
	}

	// Degradation must be graceful: bulk (and under pressure normal) shed
	// first, critical never.
	if controlled.shedsCrit != 0 {
		fail("critical class was shed %d times (must be protected)", controlled.shedsCrit)
	}
	if controlled.shedsBulk+controlled.shedsNorm == 0 {
		fail("no bulk/normal sheds under 2x overload (admission control idle)")
	}
	if uncontrolled.shedsCrit+uncontrolled.shedsNorm+uncontrolled.shedsBulk != 0 {
		fail("disabled subsystem counted sheds")
	}

	// Determinism: both modes replay byte-identically from the same seed.
	if again := r2Run(r2OverloadRate, true); again.res.Digest != controlled.res.Digest {
		fail("controlled replay digest mismatch: %x vs %x", again.res.Digest, controlled.res.Digest)
	}
	if again := r2Run(r2OverloadRate, false); again.res.Digest != uncontrolled.res.Digest {
		fail("uncontrolled replay digest mismatch: %x vs %x", again.res.Digest, uncontrolled.res.Digest)
	}
	if pass {
		notes = append(notes, "replays byte-identical in both modes; disabled mode keeps the pre-overload wire format (frozen transport tests pin it)")
	}

	return &Result{
		ID:     "R2",
		Title:  "overload control: brownout instead of collapse",
		Tables: []*trace.Table{t},
		Notes:  notes,
		Pass:   pass,
	}
}
