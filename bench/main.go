// Command bench is the repository's benchmark: four workloads over the
// whole simulator, end-to-end metrics from an untraced run, per-layer
// metrics from a traced one. README.md in this directory defines every
// number; BENCHMARK.json at the repository root is the contract a driver
// runs it by:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Without --workload it runs all four. -aa N runs the suite 2N times and
// checks that two sets of runs of the same code agree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// outDir is where the harness writes its own trace, relative to the
// directory the benchmark is started in (the checkout's root).
const outDir = "bench/out"

func main() {
	// One engine per P: with a second P the goroutine hand-offs between
	// sim.Procs cross threads and the same workload runs ~50% slower.
	runtime.GOMAXPROCS(1)

	workloadName := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 12, "host seconds of measured slices per workload")
	traceRun := flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics and writes "+outDir+"/trace_<workload>.json")
	aa := flag.Int("aa", 0, "run the suite 2N times, alternating sets A and B, and check that the sets agree")
	out := flag.String("out", "", "also write the results as JSON to this file")
	child := flag.String("child", "", "internal: run one rep, given as JSON, and print its result")
	flag.Parse()

	if *child != "" {
		if err := childMain(*child); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || *traceRun < 0 || *traceRun > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	todo := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		todo = []workload{w}
	}

	var ok bool
	var err error
	if *aa > 0 {
		ok, err = runAA(todo, *aa, *seed, fullSize(*seconds), *out)
	} else {
		ok, err = runOnce(todo, *seed, fullSize(*seconds), *traceRun == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOnce runs each workload once and prints its metrics; the last line of
// output is the result line of the last workload.
func runOnce(todo []workload, seed int64, sz size, traced bool, outPath string) (bool, error) {
	block, pinFailures := fidelity()
	fmt.Printf("fidelity (simulated figures the paper pins; E1-E3 must pass and every pin read exactly)\n%s", block)

	// The probes do not depend on the workload: they run once, and their
	// results and spans go with every workload of this invocation.
	var probes map[string]float64
	var probeSpans []hspan
	if traced {
		rec := newSpanRecorder("probes")
		probes = runProbes(rec, 1)
		probeSpans = rec.finish()
	}

	allOK := true
	var lines []resultLine
	for _, w := range todo {
		rec := newSpanRecorder("run " + w.name)
		defs := endToEnd
		var s *summary
		var vals map[string]float64
		var err error
		if traced {
			defs = perLayer
			s, vals, err = measureLayers(w, seed, sz, childRunner, rec, probes)
			rec.adopt(rec.root, probeSpans)
		} else if s, err = measureEndToEnd(w, seed, sz, childRunner, rec); err == nil {
			vals = s.metrics
		}
		if err != nil {
			return false, err
		}
		s.failures = append(s.failures, pinFailures...)
		printSummary(w, s, defs, vals)
		if traced {
			path := filepath.Join(outDir, "trace_"+w.name+".json")
			run := fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano())
			if err := rec.write(path, run); err != nil {
				return false, err
			}
			fmt.Printf("harness trace: %s (%d spans)\n", path, len(rec.spans))
		}
		line := resultLine{
			Correct:   len(s.failures) == 0,
			Attempted: s.rep.Ops + s.rep.Shed,
			Failed:    s.rep.Errors + s.rep.Shed,
			Metrics:   toMetrics(defs, vals),
		}
		lines = append(lines, line)
		allOK = allOK && line.Correct
	}
	if outPath != "" {
		byName := make(map[string]resultLine)
		for i, w := range todo {
			byName[w.name] = lines[i]
		}
		data, err := json.MarshalIndent(byName, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	// The contract's result line: last on standard output.
	last, err := json.Marshal(lines[len(lines)-1])
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", last)
	return allOK, nil
}

// printSummary prints one workload's metrics by name and unit, then what
// the numbers rest on.
func printSummary(w workload, s *summary, defs []metricDef, vals map[string]float64) {
	r := s.rep
	fmt.Printf("\nworkload %s  seed %d  (%s)\n  %s\n", w.name, s.seed, w.loop, w.why)
	width := 0
	for _, d := range defs {
		if len(d.name) > width {
			width = len(d.name)
		}
	}
	for _, d := range defs {
		fmt.Printf("  %-*s %16.6g %s\n", width, d.name, vals[d.name], d.unit)
	}
	n := len(r.Bounds) - 1
	fmt.Printf("  -- window %.4g sim-s in %d slices x %d reps; %d ops, %d errors, %d shed; %d engine events; digest %016x\n",
		float64(r.SimWindowNs)/1e9, n, s.reps, r.Ops, r.Errors, r.Shed, r.Bounds[n].Events-r.Bounds[0].Events, r.Digest)
	fmt.Printf("  -- latency: p50 and p%g of %d samples (%d retained)\n", r.TailQ*100, r.LatCount, r.LatRetained)
	fmt.Printf("  -- host: %.1f ns/event = %.1f fastest slice + %.1f collecting; %.1f mean; host_noise %.3f (median/min - 1 over %d-slice groups); %d set-ups %.3f..%.3f s\n",
		s.host.nsPerEvent, s.host.mutatorNs, s.host.gcNs, s.host.meanNs, s.host.noise, sliceGroup, len(s.setups), float64(slices.Min(s.setups))/1e9, float64(slices.Max(s.setups))/1e9)
	if len(s.failures) == 0 {
		fmt.Printf("  -- gates: ok\n")
	}
	for _, f := range s.failures {
		fmt.Printf("  -- GATE FAILED: %s\n", f)
	}
}
