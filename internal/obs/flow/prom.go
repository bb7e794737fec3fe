package flow

import (
	"bytes"
	"fmt"

	"repro/internal/obs"
)

// WriteProm appends the observatory's Prometheus exposition: the tracked
// flow count plus, for each heavy hitter the sketch monitors, byte/frame/
// retransmit samples labelled {src,dst,proto}. Sketch entries are emitted
// heaviest first and label sets are ordered, so output is
// byte-deterministic.
func (t *Table) WriteProm(b *bytes.Buffer) {
	if t == nil {
		return
	}
	fmt.Fprintf(b, "# TYPE %s gauge\n", obs.PromName("flows_tracked"))
	obs.WriteSample(b, "flows_tracked", float64(t.Len()))
	top := t.Top()
	if len(top) == 0 {
		return
	}
	fmt.Fprintf(b, "# TYPE %s counter\n", obs.PromName("flow_bytes"))
	fmt.Fprintf(b, "# TYPE %s counter\n", obs.PromName("flow_frames"))
	fmt.Fprintf(b, "# TYPE %s counter\n", obs.PromName("flow_retransmits"))
	for _, e := range top {
		c, ok := t.flows[e.Key]
		if !ok {
			continue
		}
		fl := []obs.Label{
			{Key: "src", Value: fmt.Sprintf("cab%d", e.Key.Src)},
			{Key: "dst", Value: dstName(e.Key.Dst)},
			{Key: "proto", Value: t.ProtoName(e.Key.Proto)},
		}
		obs.WriteSample(b, "flow_bytes", float64(c.Bytes), fl...)
		obs.WriteSample(b, "flow_frames", float64(c.Frames), fl...)
		obs.WriteSample(b, "flow_retransmits", float64(c.Retransmits), fl...)
	}
}
