package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// smoke is the -short-sized run: millisecond windows, reps in-process.
var smoke = size{slices: 2, reps: 2, setups: 0, traced: 2, short: true}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload end to end and traced, at smoke size, and
// checks the metric name sets, the gates (digest equality among them) and
// the shape of the result line.
func TestSmoke(t *testing.T) {
	probes := runProbes(newSpanRecorder("probes"), 1000)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rec := newSpanRecorder("test")
			s, err := measureEndToEnd(w, 7, smoke, runRep, rec)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.failures) > 0 {
				t.Fatalf("gates failed: %v", s.failures)
			}
			if got, want := keys(s.metrics), names(endToEnd); !reflect.DeepEqual(got, want) {
				t.Fatalf("end-to-end metrics %v, want %v", got, want)
			}
			for k, v := range s.metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", k, v)
				}
			}
			if s.reps != smoke.reps || s.rep.Digest == 0 {
				t.Fatalf("reps %d digest %x", s.reps, s.rep.Digest)
			}

			ls, layers, err := measureLayers(w, 7, smoke, runRep, rec, probes)
			if err != nil {
				t.Fatal(err)
			}
			if len(ls.failures) > 0 {
				t.Fatalf("traced run: gates failed: %v", ls.failures)
			}
			if got, want := keys(layers), names(perLayer); !reflect.DeepEqual(got, want) {
				t.Fatalf("per-layer metrics %v, want %v", got, want)
			}
			for k, v := range layers {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s = %v", k, v)
				}
			}
			if layers["obs.spans_per_op"] == 0 || layers["kernel.sim_self_us_per_op"] == 0 {
				t.Errorf("traced rep recorded no spans: %v spans/op", layers["obs.spans_per_op"])
			}
			if lossy := layers["fiber.damaged_per_kop"] > 0; lossy == w.clean {
				t.Errorf("clean=%v but fiber.damaged_per_kop=%v", w.clean, layers["fiber.damaged_per_kop"])
			}

			// The result line: exactly these keys, every metric exactly
			// a value and a unit.
			line, err := json.Marshal(resultLine{Correct: true, Attempted: s.rep.Ops, Metrics: toMetrics(endToEnd, s.metrics)})
			if err != nil {
				t.Fatal(err)
			}
			var generic map[string]json.RawMessage
			if err := json.Unmarshal(line, &generic); err != nil {
				t.Fatal(err)
			}
			if len(generic) != 4 || generic["correct"] == nil || generic["attempted"] == nil || generic["failed"] == nil || generic["metrics"] == nil {
				t.Fatalf("result line keys: %s", line)
			}
			var ms map[string]map[string]interface{}
			if err := json.Unmarshal(generic["metrics"], &ms); err != nil {
				t.Fatal(err)
			}
			for name, m := range ms {
				if _, ok := m["value"].(float64); !ok || len(m) != 2 || m["unit"] == "" {
					t.Errorf("metric %s: %v", name, m)
				}
			}
		})
	}
}

// TestSameSeedSameInputs checks that a rep is a function of its seed.
func TestSameSeedSameInputs(t *testing.T) {
	spec := repSpec{Workload: "mix_1hub_lossy_observed", Seed: 3, Slices: 2, Short: true}
	a, err := runRep(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 4
	b, err := runRep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatalf("seeds 3 and 4 gave the same digest %x", a.Digest)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names what the code measures.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v, the code has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the code has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, the code has %+v", kind, i, g, d)
			}
			// setup_s, the first, has the largest bound, and 0.25 is
			// the most a driver accepts.
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > endToEnd[0].bound) {
				t.Errorf("%s %s: bound %v, the code has %v", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound > 0.25 {
		t.Errorf("first end-to-end metric %+v, want setup_s with a bound of at most 0.25", endToEnd[0])
	}
	if len(perLayer) != 75 || len(endToEnd) != 11 {
		t.Errorf("%d end-to-end and %d per-layer metrics, README.md says 11 and 75", len(endToEnd), len(perLayer))
	}
}

// TestMedianSpread pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which is [2.75, 5.5, 8.25] for 1..10.
func TestMedianSpread(t *testing.T) {
	med, spread := medianSpread([]float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6})
	if med != 5.5 || math.Abs(spread-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("median %v spread %v", med, spread)
	}
}

// TestLayerSelfTime checks self time on a hand-built tree: a root of 100 ns
// whose children cover [10,30), [20,50) and [90,120) has 50 ns to itself.
func TestLayerSelfTime(t *testing.T) {
	tr := trace.NewTracer(sim.NewEngine(), 0)
	root := tr.StartAt(nil, 0, trace.LayerApp, "c", "root")
	root.ChildAt(20, trace.LayerTransport, "c", "b").EndAt(50)
	root.ChildAt(10, trace.LayerTransport, "c", "a").EndAt(30)
	root.ChildAt(90, trace.LayerFiber, "c", "late").EndAt(120)
	root.EndAt(100)
	self, n := layerSelfTime(tr.Spans(), 0, 1000)
	want := map[string]int64{trace.LayerApp: 50, trace.LayerTransport: 50, trace.LayerFiber: 30}
	if n != 4 || !reflect.DeepEqual(self, want) {
		t.Fatalf("self time %v over %d spans, want %v over 4", self, n, want)
	}
}
