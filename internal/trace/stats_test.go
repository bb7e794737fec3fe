package trace

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestHistogramStats(t *testing.T) {
	h := NewHistogram("lat")
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Median() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []sim.Time{10, 20, 30, 40, 50} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 10 || h.Max() != 50 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != 30 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Median() != 30 {
		t.Fatalf("Median = %v", h.Median())
	}
	if q := h.Quantile(1.0); q != 50 {
		t.Fatalf("Q100 = %v", q)
	}
	if q := h.Quantile(0.0); q != 10 {
		t.Fatalf("Q0 = %v", q)
	}
	if !strings.Contains(h.String(), "n=5") {
		t.Fatalf("String = %q", h.String())
	}
}

func TestHistogramQuantileAfterAdd(t *testing.T) {
	h := NewHistogram("x")
	h.Add(5)
	h.Add(1)
	_ = h.Median() // sorts
	h.Add(3)       // must invalidate sort
	if h.Median() != 3 {
		t.Fatalf("Median after re-add = %v, want 3", h.Median())
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	empty := NewHistogram("e")
	if empty.Quantile(0.5) != 0 {
		t.Fatal("quantile of empty histogram should be 0")
	}

	one := NewHistogram("one")
	one.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q); got != 42 {
			t.Fatalf("single-sample Quantile(%v) = %v", q, got)
		}
	}

	h := NewHistogram("h")
	for _, v := range []sim.Time{10, 20, 30} {
		h.Add(v)
	}
	// Out-of-range and NaN q clamp rather than panic or index out of bounds.
	if got := h.Quantile(-0.5); got != 10 {
		t.Fatalf("Quantile(-0.5) = %v, want 10", got)
	}
	if got := h.Quantile(1.5); got != 30 {
		t.Fatalf("Quantile(1.5) = %v, want 30", got)
	}
	if got := h.Quantile(math.NaN()); got != 10 {
		t.Fatalf("Quantile(NaN) = %v, want 10", got)
	}

	var nilH *Histogram
	nilH.Add(1)
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 {
		t.Fatal("nil histogram should be inert")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter("drops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("Value after reset = %d", c.Value())
	}
	if c.Name() != "drops" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1", "size", "latency", "mbps")
	tb.AddRow(64, sim.Time(700), 99.456)
	tb.AddRow(1024, sim.Time(30*sim.Microsecond), 1.0)
	s := tb.String()
	if !strings.Contains(s, "T1") || !strings.Contains(s, "700ns") || !strings.Contains(s, "99.46") {
		t.Fatalf("table output:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
}

func TestDigestIsFNV1a(t *testing.T) {
	// FNV-1a 64 of "a" is the published test vector af63dc4c8601ec8c.
	d := NewDigest()
	d.Byte('a')
	if d != 0xaf63dc4c8601ec8c {
		t.Fatalf("digest of \"a\" = %016x", uint64(d))
	}
	a, b := NewDigest(), NewDigest()
	a.Uint64(0x0807060504030201)
	for i := byte(1); i <= 8; i++ {
		b.Byte(i)
	}
	if a != b {
		t.Fatalf("Uint64 does not fold low byte first: %016x vs %016x", uint64(a), uint64(b))
	}
}

func TestGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.golden")
	if err := Golden(path, []byte("a\nb\n"), false); err == nil {
		t.Fatal("missing golden file did not error")
	}
	if err := Golden(path, []byte("a\nb\n"), true); err != nil {
		t.Fatal(err)
	}
	if err := Golden(path, []byte("a\nb\n"), false); err != nil {
		t.Fatalf("identical output: %v", err)
	}
	err := Golden(path, []byte("a\nB\n"), false)
	if err == nil || !strings.Contains(err.Error(), "at line 2") || !strings.Contains(err.Error(), `"B"`) || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("drifted output: %v", err)
	}
	if err := Golden(path, []byte("a\n"), false); err == nil || !strings.Contains(err.Error(), "at line 2") {
		t.Fatalf("truncated output: %v", err)
	}
}
