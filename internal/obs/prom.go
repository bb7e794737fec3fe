package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Label is one Prometheus label pair. Labels are passed as an ordered
// slice (not a map) so exposition output is byte-deterministic.
type Label struct {
	Key, Value string
}

// PromName sanitizes a dotted metric name ("hub0.p2.queue_bytes") into a
// Prometheus metric name ("nectar_hub0_p2_queue_bytes"): every character
// outside [a-zA-Z0-9_] becomes '_' and the nectar_ namespace prefix is
// applied.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + len("nectar_"))
	b.WriteString("nectar_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders v the way Prometheus clients do: shortest
// round-trippable representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {k="v",...} (empty string for no labels).
func writeLabels(b *bytes.Buffer, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WriteSample writes one exposition line: name{labels} value. The metric
// name is sanitized with PromName.
func WriteSample(b *bytes.Buffer, name string, v float64, labels ...Label) {
	b.WriteString(PromName(name))
	writeLabels(b, labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func sortedSnapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteProm renders a registry snapshot in Prometheus text exposition
// format 0.0.4:
//
//   - counters and read-out funcs as counter/gauge samples
//   - gauges as three samples: current value, high-water mark (_max), and
//     time-weighted mean (_mean)
//   - histograms as summaries (quantile 0/0.5/0.95/1 plus _sum and _count)
//
// Names are emitted in sorted order, so output is byte-deterministic.
func WriteProm(w io.Writer, snap *trace.Snapshot) error {
	var b bytes.Buffer
	for _, n := range sortedSnapKeys(snap.Counters) {
		pn := PromName(n)
		fmt.Fprintf(&b, "# TYPE %s counter\n", pn)
		WriteSample(&b, n, float64(snap.Counters[n]))
	}
	for _, n := range sortedSnapKeys(snap.Funcs) {
		pn := PromName(n)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", pn)
		WriteSample(&b, n, snap.Funcs[n])
	}
	for _, n := range sortedSnapKeys(snap.Gauges) {
		g := snap.Gauges[n]
		pn := PromName(n)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", pn)
		WriteSample(&b, n, float64(g.Value))
		fmt.Fprintf(&b, "# TYPE %s_max gauge\n", pn)
		WriteSample(&b, n+"_max", float64(g.Max))
		fmt.Fprintf(&b, "# TYPE %s_mean gauge\n", pn)
		WriteSample(&b, n+"_mean", g.Mean)
	}
	for _, n := range sortedSnapKeys(snap.Hists) {
		h := snap.Hists[n]
		pn := PromName(n)
		fmt.Fprintf(&b, "# TYPE %s summary\n", pn)
		quants := []struct {
			q string
			v float64
		}{
			{"0", float64(h.Min)},
			{"0.5", float64(h.P50)},
			{"0.95", float64(h.P95)},
			{"1", float64(h.Max)},
		}
		for _, qv := range quants {
			WriteSample(&b, n, qv.v, Label{"quantile", qv.q})
		}
		WriteSample(&b, n+"_sum", float64(h.Mean)*float64(h.Count))
		WriteSample(&b, n+"_count", float64(h.Count))
	}
	_, err := w.Write(b.Bytes())
	return err
}

// WriteSamplerProm appends one gauge sample per sampler series (its most
// recent retained value) plus a nectar_sampler_ticks counter. Series
// names gain a _last suffix to distinguish the point-in-time reading from
// any registry gauge of the same name.
func WriteSamplerProm(b *bytes.Buffer, s *Sampler) {
	if s == nil {
		return
	}
	fmt.Fprintf(b, "# TYPE %s counter\n", PromName("sampler_ticks"))
	WriteSample(b, "sampler_ticks", float64(s.Ticks()))
	for _, sr := range s.Series() {
		name := sr.Name() + "_last"
		fmt.Fprintf(b, "# TYPE %s gauge\n", PromName(name))
		WriteSample(b, name, float64(sr.Last().V))
	}
}
