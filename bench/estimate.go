package main

import (
	"fmt"
	"math"
	"sort"
)

// Run protocol constants. One workload run is repsPerRun identical reps
// (fresh system, same seed) plus setupsPerRep set-up-only builds before
// each, so setup_s rests on repsPerRun*(setupsPerRep+1) cold set-ups.
const (
	repsPerRun   = 3
	setupsPerRep = 3
	// One slice costs about 5 host-ms on the box the windows were sized
	// on, so --seconds buys seconds/0.005 slices, shared among the reps.
	// The slices are this short because the interference on a shared box
	// leaves only short gaps when it is heavy (README.md has the
	// measurements).
	sliceHostS = 0.005
	// sliceGroup consecutive slices make a quarter of a host-second,
	// which is what host_noise and load.ops_per_slice_cv look at.
	sliceGroup = 50
	// The traced run makes tracedPairs untraced and as many traced reps,
	// of tracedSlices slices each.
	tracedSlices = 300
	tracedPairs  = 2
)

func slicesFor(seconds float64) int {
	s := int(math.Round(seconds / sliceHostS / repsPerRun))
	if s < 2 {
		s = 2
	}
	return s
}

// hostEstimate is the host-time estimator over a set of slices.
//
// Whole-run wall time is unusable on a shared box (the same window took
// 3.75-6.55 s over 25 back-to-back repetitions while sizing this), and the
// interference only ever adds time. So the simulator's own work is taken at
// the rate of the fastest slice, host ns per engine event, times the
// window's events; events are exact, so extra work (retransmissions,
// removed events) still shows. A slice that short dodges the collector's
// mark phases, so the CPU time the runtime says it spent collecting over
// the whole window is added back, per event.
type hostEstimate struct {
	nsPerEvent float64 // mutatorNs + gcNs
	mutatorNs  float64 // min over slices of host ns / events
	gcNs       float64 // min over reps of GC CPU ns / events, whole window
	meanNs     float64 // plain mean, for information
	noise      float64 // median/min - 1 over groups of slices, for information
}

// estimateHost looks at the first firstSlices slices of every rep (0: every
// slice).
func estimateHost(reps []*repResult, firstSlices int) hostEstimate {
	h := hostEstimate{mutatorNs: math.Inf(1), gcNs: math.Inf(1)}
	var groups []float64
	var wall, events float64
	for _, r := range reps {
		n := len(r.Bounds) - 1
		h.gcNs = min(h.gcNs, float64(r.EndProc.GCCPUNs-r.StartProc.GCCPUNs)/float64(r.Bounds[n].Events-r.Bounds[0].Events))
		if firstSlices > 0 && firstSlices < n {
			n = firstSlices
		}
		for i := 1; i <= n; i++ {
			h.mutatorNs = min(h.mutatorNs, rate(r.Bounds[i-1], r.Bounds[i]))
		}
		for i := 0; i < n; i += sliceGroup {
			groups = append(groups, rate(r.Bounds[i], r.Bounds[min(i+sliceGroup, n)]))
		}
		wall += float64(r.Bounds[n].WallNs - r.Bounds[0].WallNs)
		events += float64(r.Bounds[n].Events - r.Bounds[0].Events)
	}
	sort.Float64s(groups)
	h.nsPerEvent = h.mutatorNs + h.gcNs
	h.meanNs = wall / events
	h.noise = median(groups)/groups[0] - 1
	return h
}

// rate is the host ns per engine event between two boundaries.
func rate(a, b boundary) float64 {
	return float64(b.WallNs-a.WallNs) / float64(b.Events-a.Events)
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// setupEstimate is the set-up time with the interference taken out the same
// way as for the window: every phase of the set-up (build and install up to
// the first tick, then each warm-up tick) is the same work in every cold
// set-up, so each phase counts at the fastest of its repetitions, and
// setup_s is the sum over the phases.
func setupEstimate(all []*repResult) int64 {
	var total int64
	for ph := range all[0].SetupNs {
		best := all[0].SetupNs[ph]
		for _, r := range all[1:] {
			best = min(best, r.SetupNs[ph])
		}
		total += best
	}
	return total
}

// summary is one workload's end-to-end result.
type summary struct {
	seed     int64
	metrics  map[string]float64
	host     hostEstimate
	rep      *repResult // the first rep: every simulated number comes from it
	reps     int
	setups   []int64  // every cold set-up's total, as clocked
	failures []string // correctness gates that did not hold
}

func (s *summary) failf(format string, a ...interface{}) {
	s.failures = append(s.failures, fmt.Sprintf(format, a...))
}

// summarize turns the reps of one run, set-up-only ones included, into the
// end-to-end metrics and applies the correctness gates.
func summarize(w workload, seed int64, all []*repResult) *summary {
	var reps []*repResult
	var setups []int64
	for _, r := range all {
		setups = append(setups, sum(r.SetupNs))
		if r.Spec.Slices > 0 {
			reps = append(reps, r)
		}
	}
	r := reps[0]
	n := len(r.Bounds) - 1
	events := r.Bounds[n].Events - r.Bounds[0].Events
	s := &summary{seed: seed, rep: r, reps: len(reps), setups: setups, host: estimateHost(reps, 0)}

	ops := float64(r.Ops)
	simS := float64(r.SimWindowNs) / 1e9
	hostNs := s.host.nsPerEvent * float64(events)
	s.metrics = map[string]float64{
		"setup_s":          float64(setupEstimate(all)) / 1e9,
		"host_s_per_sim_s": hostNs / 1e9 / simS,
		"host_us_per_op":   hostNs / 1e3 / ops,
		"allocs_per_op":    float64(r.EndProc.Mallocs-r.StartProc.Mallocs) / ops,
		"alloc_kb_per_op":  float64(r.EndProc.TotalAlloc-r.StartProc.TotalAlloc) / 1e3 / ops,
		"live_mem_mb":      float64(r.LiveBytes) / 1e6,
		"sim_ops_per_s":    ops / simS,
		"sim_goodput_mbps": float64(r.Goodput) * 8 / 1e6 / simS,
		"sim_p50_us":       float64(r.P50Ns) / 1e3,
		"sim_tail_us":      float64(r.TailNs) / 1e3,
		"ok_op_share":      float64(r.Ops-r.Errors) / float64(r.Ops+r.Shed),
	}

	// Gates. The simulator is deterministic, so every rep of one seed must
	// agree on everything simulated, bit for bit.
	for i, o := range reps[1:] {
		if o.Digest != r.Digest {
			s.failf("rep %d digest %016x differs from rep 0 digest %016x", i+1, o.Digest, r.Digest)
		}
		if o.Ops != r.Ops || o.Errors != r.Errors || o.Shed != r.Shed || o.Goodput != r.Goodput ||
			o.P50Ns != r.P50Ns || o.TailNs != r.TailNs || o.CollSteps != r.CollSteps ||
			o.Bounds[n].Events-o.Bounds[0].Events != events || o.End != r.End {
			s.failf("rep %d simulated results differ from rep 0", i+1)
		}
	}
	if s.metrics["ok_op_share"] != 1 {
		s.failf("ok_op_share %v: %d errors and %d shed of %d operations", s.metrics["ok_op_share"], r.Errors, r.Shed, r.Ops+r.Shed)
	}
	d := r.End.since(r.Start)
	if w.clean {
		// No fault is injected, so nothing may be damaged, dropped,
		// refused or sent twice.
		zero := []struct {
			name string
			c    counter
		}{
			{"fiber damaged items", fiberDamaged}, {"hub drops", hubDrops},
			{"transport checksum drops", tpChecksumDrops}, {"transport mailbox drops", tpMailboxDrops},
			{"transport duplicate requests", tpDupRequests},
			{"datalink open timeouts", dlOpenTimeouts}, {"datalink open failures", dlOpenFailures},
			{"transport retransmits", tpRetransmits}, {"transport rto expiries", tpRTOExpiries},
		}
		if w.rtoUnderIncast {
			zero = zero[:len(zero)-2]
		}
		for _, z := range zero {
			if d[z.c] != 0 {
				s.failf("clean workload: %d %s, want 0", d[z.c], z.name)
			}
		}
	} else if d[fiberDamaged] == 0 || d[tpRetransmits] == 0 {
		s.failf("lossy workload saw %d damaged items and %d retransmits; both must be non-zero", d[fiberDamaged], d[tpRetransmits])
	}
	return s
}
