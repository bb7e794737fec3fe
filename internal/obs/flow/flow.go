// Package flow is the flow-level congestion observatory: NetFlow-style
// per-(source CAB, destination CAB, wire protocol) accounting fed from the
// datalink and transport hot paths, a deterministic space-saving top-k
// sketch for heavy-hitter detection, and a congestion "weathermap" over HUB
// port state.
//
// Like the rest of package obs, the observatory follows the pull-model
// contract: accounting only mutates plain counters — it never allocates in
// steady state, never schedules simulation events, and never perturbs
// simulated time — so an observed run is provably byte-identical to an
// unobserved one. A nil *Table is valid and records nothing, so every layer
// can account unconditionally.
package flow

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// McastDst is the Dst of flows with no single destination: the HUB crossbar
// tree fans one copy out to every member (paper §4.2.2/§4.2.4).
const McastDst = 0xFFFF

// Key identifies one flow: (source CAB, destination CAB, wire protocol).
// The protocol byte is the first wire byte of the transport header, so the
// datalink can classify without decoding.
type Key struct {
	Src   uint16
	Dst   uint16
	Proto byte
}

// less orders keys (src, dst, proto) — the deterministic tie-break used by
// every export.
func (k Key) less(o Key) bool {
	if k.Src != o.Src {
		return k.Src < o.Src
	}
	if k.Dst != o.Dst {
		return k.Dst < o.Dst
	}
	return k.Proto < o.Proto
}

// Counters are one flow's accumulated statistics.
type Counters struct {
	// Frames counts wire packets (including retransmitted copies).
	Frames int64
	// Bytes counts wire bytes (transport header + payload).
	Bytes int64
	// Retransmits counts protocol-level retransmissions charged to the
	// flow by the transport (request retries, go-back-N resends, VMTP
	// selective retransmission rounds).
	Retransmits int64
	// Queue is the accumulated sender-side queueing time: what each frame
	// spent waiting for the transmit mutex and the outgoing flow-control
	// credit before its first byte left the board. Per-hop queueing inside
	// the network is the critical-path attributor's job (trace.CriticalPath).
	Queue sim.Time
}

// Record is one flow with its counters — the export row shape.
type Record struct {
	Key
	Counters
}

// Table accumulates flow records. Accounting is zero-alloc in steady state:
// a seen flow is one map lookup plus counter adds; only the first frame of
// a new flow allocates its entry. Every reader (Records, Top, CSV) orders
// output deterministically.
type Table struct {
	flows     map[Key]*Counters
	order     []Key // first-seen order (kept for the records cap)
	sketch    *TopK
	protoName func(byte) string
}

// NewTable returns a flow table with a top-k heavy-hitter sketch of k
// entries (DefaultTopK if k <= 0). protoName renders the protocol byte in
// exports (nil: "proto(N)").
func NewTable(k int, protoName func(byte) string) *Table {
	if k <= 0 {
		k = DefaultTopK
	}
	return &Table{
		flows:     make(map[Key]*Counters),
		sketch:    NewTopK(k),
		protoName: protoName,
	}
}

// DefaultTopK is the sketch size used when a caller passes k <= 0.
const DefaultTopK = 32

// ProtoName renders a protocol byte using the table's namer.
func (t *Table) ProtoName(p byte) string {
	if t != nil && t.protoName != nil {
		return t.protoName(p)
	}
	return fmt.Sprintf("proto(%d)", p)
}

// key builds the flow key, folding multicast (dst < 0) onto McastDst.
func key(src, dst int, proto byte) Key {
	d := uint16(McastDst)
	if dst >= 0 {
		d = uint16(dst)
	}
	return Key{Src: uint16(src), Dst: d, Proto: proto}
}

// Account charges one frame of n wire bytes to the flow, with its
// sender-side queueing time. dst < 0 records a multicast flow. Nil-safe and
// zero-alloc for flows already seen.
func (t *Table) Account(src, dst int, proto byte, n int, queued sim.Time) {
	if t == nil {
		return
	}
	k := key(src, dst, proto)
	c := t.flows[k]
	if c == nil {
		c = &Counters{}
		t.flows[k] = c
		t.order = append(t.order, k)
	}
	c.Frames++
	c.Bytes += int64(n)
	c.Queue += queued
	t.sketch.Offer(k, int64(n))
}

// Retrans charges one protocol retransmission to the flow (no wire bytes:
// the resent frame itself is accounted by the datalink when it goes out).
func (t *Table) Retrans(src, dst int, proto byte) {
	if t == nil {
		return
	}
	k := key(src, dst, proto)
	c := t.flows[k]
	if c == nil {
		c = &Counters{}
		t.flows[k] = c
		t.order = append(t.order, k)
	}
	c.Retransmits++
}

// Len returns the number of distinct flows tracked.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return len(t.flows)
}

// Records returns every flow, ordered by bytes descending (ties by key), so
// exports are byte-deterministic.
func (t *Table) Records() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, len(t.order))
	for _, k := range t.order {
		out = append(out, Record{Key: k, Counters: *t.flows[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Key.less(out[j].Key)
	})
	return out
}

// Top returns the heavy-hitter sketch's entries, heaviest first.
func (t *Table) Top() []TopEntry {
	if t == nil {
		return nil
	}
	return t.sketch.Entries()
}

// dstName renders a destination CAB id ("*" for multicast).
func dstName(d uint16) string {
	if d == McastDst {
		return "*"
	}
	return fmt.Sprintf("cab%d", d)
}

// CSV renders every flow as
// "src,dst,proto,frames,bytes,retransmits,queue_ns" lines under a header,
// heaviest flow first. Byte-deterministic for a deterministic run.
func (t *Table) CSV() []byte {
	var b bytes.Buffer
	b.WriteString("src,dst,proto,frames,bytes,retransmits,queue_ns\n")
	for _, r := range t.Records() {
		fmt.Fprintf(&b, "cab%d,%s,%s,%d,%d,%d,%d\n",
			r.Src, dstName(r.Dst), t.ProtoName(r.Proto),
			r.Frames, r.Bytes, r.Retransmits, int64(r.Queue))
	}
	return b.Bytes()
}
