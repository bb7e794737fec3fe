package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// testSnapshot builds a registry with one of everything and advances
// simulated time so gauge means are non-trivial.
func testSnapshot(t *testing.T) *trace.Snapshot {
	t.Helper()
	eng := sim.NewEngine()
	reg := trace.NewRegistry(eng)
	reg.Counter("hub0.p1.drops").Add(3)
	reg.Func("net.links_failed", func() float64 { return 2 })
	g := reg.Gauge("hub0.p1.queue_bytes")
	h := reg.Histogram("transport.req_latency")
	eng.At(0, func() { g.Set(100) })
	eng.At(50, func() { g.Set(0) })
	eng.At(100, func() {
		h.Add(10)
		h.Add(20)
		h.Add(30)
	})
	eng.Run()
	return reg.Snapshot()
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"hub0.p2.queue_bytes": "nectar_hub0_p2_queue_bytes",
		"a-b c/d":             "nectar_a_b_c_d",
		"already_ok":          "nectar_already_ok",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePromGolden(t *testing.T) {
	snap := testSnapshot(t)
	var b bytes.Buffer
	if err := WriteProm(&b, snap); err != nil {
		t.Fatal(err)
	}
	got := b.Bytes()

	golden := filepath.Join("testdata", "prom.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("prom output differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWritePromIsValidExposition(t *testing.T) {
	var b bytes.Buffer
	if err := WriteProm(&b, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	typesSeen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("invalid metric type in %q", line)
			}
			if typesSeen[parts[2]] {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			typesSeen[parts[2]] = true
			continue
		}
		// Sample line: name{labels} value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
			if !strings.HasPrefix(name[i:], `{quantile="`) {
				t.Fatalf("unexpected label set: %q", line)
			}
			name = name[:i]
		}
		if !strings.HasPrefix(name, "nectar_") {
			t.Fatalf("sample not namespaced: %q", line)
		}
	}
	// The summary must expose _sum and _count.
	if !strings.Contains(out, "nectar_transport_req_latency_sum") ||
		!strings.Contains(out, "nectar_transport_req_latency_count") {
		t.Fatalf("summary missing _sum/_count:\n%s", out)
	}
}

func TestWriteSamplerProm(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, 10, 0)
	s.Register("hub0.p0.queue_bytes", func() int64 { return 42 })
	s.Start()
	eng.RunUntil(10)
	s.Stop()
	var b bytes.Buffer
	WriteSamplerProm(&b, s)
	out := b.String()
	if !strings.Contains(out, "nectar_sampler_ticks 1\n") {
		t.Fatalf("missing tick counter:\n%s", out)
	}
	if !strings.Contains(out, "nectar_hub0_p0_queue_bytes_last 42\n") {
		t.Fatalf("missing series sample:\n%s", out)
	}
	// Nil sampler writes nothing.
	var nb bytes.Buffer
	WriteSamplerProm(&nb, nil)
	if nb.Len() != 0 {
		t.Fatalf("nil sampler wrote %q", nb.String())
	}
}
