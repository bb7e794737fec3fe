// Package trace provides instrumentation for the Nectar simulation: counters,
// latency histograms, throughput meters, and an event recorder modeled on the
// prototype's instrumentation board (paper §4.1), which "can monitor and
// record events related to the crossbar and its controller".
package trace

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Histogram accumulates sim.Time samples (latencies) and reports summary
// statistics. By default samples are retained exactly, so quantiles are
// exact; the experiment harness uses modest sample counts. Long load runs
// can bound memory with SetCap: past the cap the retained set is decimated
// deterministically (every other retained sample dropped, retention stride
// doubled), trading quantile resolution for constant memory. Count, Min,
// Max, and Mean stay exact either way.
type Histogram struct {
	name    string
	samples []sim.Time
	sorted  bool
	sum     float64
	min     sim.Time
	max     sim.Time
	adds    int64
	// cap bounds retained samples (0: exact retention); stride is the
	// current retention stride (record 1 in stride adds), doubling at
	// every decimation.
	cap    int
	stride int64
}

// NewHistogram returns an empty histogram with a display name.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, min: math.MaxInt64}
}

// SetCap bounds retained samples to at most cap (cap <= 0 restores exact
// retention; already-retained samples are kept either way). When adds
// overflow the cap, the retained set is decimated in place — every other
// retained sample dropped, in current storage order — and the retention
// stride doubles, so the histogram keeps a deterministic 1-in-stride
// subsample from then on. Decimation is a pure function of the add
// sequence: two runs that add the same samples in the same order retain
// identical subsets.
func (h *Histogram) SetCap(cap int) {
	if h == nil {
		return
	}
	if cap < 0 {
		cap = 0
	}
	h.cap = cap
	if cap > 0 && h.stride == 0 {
		h.stride = 1
	}
}

// Add records one sample. A nil *Histogram is valid and records nothing
// (the registry hands out nil instruments when metrics are disabled).
func (h *Histogram) Add(v sim.Time) {
	if h == nil {
		return
	}
	h.adds++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if h.cap > 0 {
		if (h.adds-1)%h.stride != 0 {
			return // not selected by the current stride
		}
		if len(h.samples) >= h.cap {
			h.decimate()
			if (h.adds-1)%h.stride != 0 {
				return // no longer selected under the doubled stride
			}
		}
	}
	h.samples = append(h.samples, v)
	h.sorted = false
}

// decimate drops every other retained sample (in current storage order)
// and doubles the retention stride.
func (h *Histogram) decimate() {
	kept := h.samples[:0]
	for i := 0; i < len(h.samples); i += 2 {
		kept = append(kept, h.samples[i])
	}
	h.samples = kept
	h.stride *= 2
}

// Samples returns the recorded samples in insertion order (or sorted, if a
// quantile has been computed since the last Add). The slice is the
// histogram's own backing store: callers must not mutate it.
func (h *Histogram) Samples() []sim.Time {
	if h == nil {
		return nil
	}
	return h.samples
}

// Count returns the number of samples added (exact even when a cap has
// decimated the retained set).
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	return int(h.adds)
}

// Retained returns how many samples are actually held (== Count unless a
// cap has decimated the set).
func (h *Histogram) Retained() int {
	if h == nil {
		return 0
	}
	return len(h.samples)
}

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() sim.Time {
	if h == nil || len(h.samples) == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() sim.Time {
	if h == nil || len(h.samples) == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (0 if empty). It is exact even when a
// cap has decimated the retained set: the running sum covers every add.
func (h *Histogram) Mean() sim.Time {
	if h == nil || h.adds == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.adds))
}

// Quantile returns the q-quantile using the nearest-rank method. q is
// clamped to [0, 1] (a NaN q reads as 0). It returns 0 for an empty
// histogram.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h == nil || len(h.samples) == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Median returns the 0.5 quantile.
func (h *Histogram) Median() sim.Time { return h.Quantile(0.5) }

// String summarizes the histogram.
func (h *Histogram) String() string {
	if h == nil || len(h.samples) == 0 {
		return fmt.Sprintf("%s: no samples", h.name)
	}
	return fmt.Sprintf("%s: n=%d min=%v p50=%v mean=%v p95=%v max=%v",
		h.name, h.Count(), h.Min(), h.Median(), h.Mean(), h.Quantile(0.95), h.Max())
}

// Counter is a named monotonically non-negative event counter.
type Counter struct {
	name string
	n    int64
}

// NewCounter returns a zeroed counter.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Name returns the counter's display name ("" for nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Inc adds one. A nil *Counter is valid and records nothing (the registry
// hands out nil instruments when metrics are disabled).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n++
}

// Add adds delta (which may be negative, e.g. queue occupancy deltas).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.n += delta
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.n = 0
}

// Table is a simple fixed-width text table builder used by the experiment
// harness to print paper-style result tables.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// Rows returns the formatted cell rows. Callers must not mutate them.
func (t *Table) Rows() [][]string { return t.rows }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	ncol := len(t.headers)
	widths := make([]int, ncol)
	for i, hd := range t.headers {
		widths[i] = len(hd)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < ncol && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, ncol)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Digest is a running 64-bit FNV-1a fold: the fingerprint every replay
// check in the repository compares (load.Result.Digest, the experiments'
// armed-versus-dark digests). Start one with
// NewDigest; the zero value is not the FNV offset basis.
type Digest uint64

// NewDigest returns the FNV-1a offset basis.
func NewDigest() Digest { return 0xcbf29ce484222325 }

// Byte folds one byte.
func (d *Digest) Byte(b byte) { *d = (*d ^ Digest(b)) * 0x100000001b3 }

// Uint64 folds v, low byte first.
func (d *Digest) Uint64(v uint64) {
	for i := 0; i < 8; i++ {
		d.Byte(byte(v >> (8 * i)))
	}
}

// Golden compares a deterministic rendering with the golden file at path
// and reports the first line at which they part: the 1-based line number
// and both versions of the line, instead of two whole documents. With
// update set it rewrites the file from got instead (the tests' -update
// flag, for a declared change of behaviour).
func Golden(path string, got []byte, update bool) error {
	if update {
		return os.WriteFile(path, got, 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return nil
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(s []string) string {
		if i < len(s) {
			return fmt.Sprintf("%q", s[i])
		}
		return "<end of output>"
	}
	return fmt.Errorf("output drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, line(g), line(w))
}
