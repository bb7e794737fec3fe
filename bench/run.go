package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// A repRunner runs one rep. The benchmark runs each rep in a child process
// of its own; the smoke test runs them in-process.
//
// Why a process per rep: every sim.Proc is a parked goroutine that keeps
// its whole system reachable, so a system is never collected once built
// (the 1024-CAB torus holds 1.5 GB). A fresh process also makes every
// set-up a cold one, and keeps one rep's garbage out of the next rep's GC
// pacing. The children run one after another, each on one P.
type repRunner func(repSpec) (*repResult, error)

// childRunner re-executes this binary with -child <spec>.
func childRunner(spec repSpec) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", string(arg))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil { // Run waits for the child to end
		return nil, fmt.Errorf("rep %s: %w", arg, err)
	}
	res := new(repResult)
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("rep %s: reading its result: %w", arg, err)
	}
	return res, nil
}

// childMain is the -child side: run the rep, print its result as one line.
func childMain(arg string) error {
	var spec repSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return fmt.Errorf("-child %q: %w", arg, err)
	}
	res, err := runRep(spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// size is how much one run measures.
type size struct {
	slices int // measured slices per rep
	reps   int
	setups int // set-up-only builds before each rep
	traced int // slices of each rep of the traced run
	short  bool
}

func fullSize(seconds float64) size {
	return size{slices: slicesFor(seconds), reps: repsPerRun, setups: setupsPerRep, traced: tracedSlices}
}

// measureEndToEnd is the untraced run: reps and set-ups, interleaved so the
// set-ups are spread over the whole run.
func measureEndToEnd(w workload, seed int64, sz size, run repRunner, rec *spanRecorder) (*summary, error) {
	var all []*repResult
	for k := 0; k < sz.reps; k++ {
		for j := 0; j <= sz.setups; j++ {
			spec := repSpec{Workload: w.name, Seed: seed, Short: sz.short}
			if j == sz.setups {
				spec.Slices = sz.slices
			}
			r, err := run(spec)
			if err != nil {
				return nil, err
			}
			rec.adopt(rec.root, r.Spans)
			all = append(all, r)
		}
	}
	return summarize(w, seed, all), nil
}

// measureLayers is the traced run: untraced and traced reps of the same
// window, alternating so that a busy second does not fall on one kind only,
// to which the probes' results are added. The difference between the two
// kinds is the tracing overhead; end-to-end metrics never come from here.
func measureLayers(w workload, seed int64, sz size, run repRunner, rec *spanRecorder, probes map[string]float64) (*summary, map[string]float64, error) {
	var plain, traced, all []*repResult
	for i := 0; i < 2*tracedPairs; i++ {
		r, err := run(repSpec{Workload: w.name, Seed: seed, Slices: sz.traced, Short: sz.short, Traced: i%2 == 1})
		if err != nil {
			return nil, nil, err
		}
		rec.adopt(rec.root, r.Spans)
		all = append(all, r)
		if r.Spec.Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	// Tracing must be invisible to the simulation: the gates compare the
	// traced reps with the untraced ones.
	return summarize(w, seed, all), layerMetrics(plain, traced, probes), nil
}
