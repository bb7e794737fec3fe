package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// hostNoiseLimit is where the median quarter-second of a run is so much
// slower than its fastest that the run says more about the box than about
// the program.
const hostNoiseLimit = 0.25

// runAA checks that two sets of runs of the same code agree. It runs the
// suite 2N times, alternating set A and set B; both sets use seeds
// seed..seed+N-1, as a driver comparing two commits would. For every
// workload and end-to-end metric it prints both medians, the gap between
// them and each set's spread (interquartile range over median), and fails
// when
//   - a gap exceeds the metric's bound;
//   - a spread exceeds it, setup_s apart, whose spread the driver does not
//     hold to the bound either;
//   - an exact metric differs between the two runs of one seed at all;
//   - host_noise exceeded hostNoiseLimit on more than half the runs of a
//     set: the box was too busy for the result to mean anything.
func runAA(todo []workload, n int, seed int64, sz size, outPath string) (bool, error) {
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	noisy := [2]map[string]int{{}, {}}
	for i := 0; i < 2*n; i++ {
		set := i % 2
		for _, w := range todo {
			s, err := measureEndToEnd(w, seed+int64(i/2), sz, childRunner, newSpanRecorder("aa"))
			if err != nil {
				return false, err
			}
			for _, f := range s.failures {
				return false, fmt.Errorf("%s seed %d: gate failed: %s", w.name, s.seed, f)
			}
			for _, d := range endToEnd {
				k := key{w.name, d.name}
				v := s.metrics[d.name]
				if a := vals[0][k]; set == 1 && d.exact && a[len(a)-1] != v {
					return false, fmt.Errorf("%s seed %d: %s is %v in set A and %v in set B; it is simulated and must repeat exactly", w.name, s.seed, d.name, a[len(a)-1], v)
				}
				vals[set][k] = append(vals[set][k], v)
			}
			if s.host.noise > hostNoiseLimit {
				noisy[set][w.name]++
			}
			fmt.Fprintf(os.Stderr, "aa: run %d/%d set %c %s seed %d: %.1f ns/event, host_noise %.3f\n",
				i+1, 2*n, 'A'+set, w.name, s.seed, s.host.nsPerEvent, s.host.noise)
		}
	}

	ok := true
	baseline := make(map[string]map[string]float64)
	fmt.Printf("%-24s %-17s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound")
	for _, w := range todo {
		baseline[w.name] = make(map[string]float64)
		for _, d := range endToEnd {
			a, b := vals[0][key{w.name, d.name}], vals[1][key{w.name, d.name}]
			ma, sa := medianSpread(a)
			mb, sb := medianSpread(b)
			gap := (mb - ma) / ma // worsening of B against A
			if d.better == "higher" {
				gap = -gap
			}
			verdict := ""
			if gap > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				verdict = "  FAIL"
				ok = false
			}
			fmt.Printf("%-24s %-17s %12.6g %12.6g %+8.4f %8.4f %8.4f %6.3f%s\n", w.name, d.name, ma, mb, gap, sa, sb, d.bound, verdict)
			baseline[w.name][d.name] = (ma + mb) / 2
		}
		for set := 0; set < 2; set++ {
			if noisy[set][w.name]*2 > n {
				fmt.Printf("%-24s host_noise > %v on %d of %d runs of set %c  FAIL\n", w.name, hostNoiseLimit, noisy[set][w.name], n, 'A'+set)
				ok = false
			}
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(baseline, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// medianSpread returns the median and the distance between the first and
// third quartiles as a share of it. Quartiles are the "exclusive" ones of
// Python's statistics.quantiles(values, n=4), which the driver uses.
func medianSpread(v []float64) (med, spread float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], 0
	}
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med = median(s)
	return med, (q(0.75) - q(0.25)) / med
}
