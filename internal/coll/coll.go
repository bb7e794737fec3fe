// Package coll is the collective-communication subsystem: group
// membership with deterministic rank assignment and the full set of
// collectives — Barrier, Bcast, Reduce, Allreduce, Gather, Scatter,
// Alltoall, Allgather — executed entirely by CAB kernel threads, the
// offload style of the paper's §3.1 ("[the CAB] off-loads application
// tasks from nodes whenever appropriate").
//
// Every collective has multiple selectable algorithms:
//
//   - binomial trees over the reliable byte-stream transport (bcast,
//     reduce, gather, scatter; any group size);
//   - recursive doubling with a power-of-two fold for small-payload
//     allreduce at arbitrary group sizes, and a dissemination barrier;
//   - a ring pipeline (reduce-scatter + allgather) for large-payload
//     allreduce, bandwidth-optimal per link;
//   - the HUB hardware multicast (§4.2.2/§4.2.4) for bcast and barrier
//     release: one copy on the sender's fiber, fanned out by the
//     crossbar tree, made reliable by ack aggregation up a binomial
//     tree with stream retransmission to the losers only (mcast.go).
//
// Selection is automatic by payload size x group size x placement, with a
// per-group coll.WithAlgorithm override. Everything is instrumented:
// per-collective spans (trace.LayerColl), coll.* metrics, and
// flight-recorder events for multicast retransmits and stragglers.
//
// Determinism: all scheduling happens on the system's discrete-event
// engine and every tie (rank order, combine order, retransmit order) is
// broken by rank, so a run is a pure function of the system and the
// collective call sequence.
package coll

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Box layout: group id g owns boxes 0xC000+g*256 .. 0xC000+g*256+0xFF.
// Rank r's private box is base+r; base+0xFF is the shared multicast
// delivery box (registered onto every member's mailbox).
const (
	boxBase   = 0xC000
	groupSlot = 0xFF
	// MaxGroups bounds group ids (box space above 0xC000).
	MaxGroups = 63
	// MaxMembers bounds group size (one box per rank below the group slot).
	MaxMembers = 254
)

// Group is a collective-communication group: an ordered set of member
// CABs with canonical ranks. Build one with NewGroup; each member drives
// its collectives through the Comm returned by Member.
type Group struct {
	sys     *core.System
	id      int
	n       int
	members []int // rank -> CAB id
	all     []int // 0..n-1: the part spanning the whole group (algos.go)
	rankOf  []int // NewGroup input index -> rank
	comms   []*Comm
	base    uint16
	mcastOK bool // all members on distinct CABs: HW multicast usable

	forced  string // per-group algorithm override ("" = automatic)
	algo    algo
	retries int // per-link retry bound of sendTo (WithMaxRetries)

	// comb is the group's placement over combining-capable HUBs
	// (combining.go); comb.enabled only when the system armed
	// core.WithHubCombining.
	comb combPlacement

	tr  *trace.Tracer
	reg *trace.Registry
	fr  *obs.FlightRecorder

	// The metric instruments of each collective and of each algorithm
	// choice, looked up in reg on first use and kept, so a collective
	// builds no instrument name. Both stay nil while reg is nil.
	opMetrics  map[string]opMetrics
	algoCounts map[algoChoice]*trace.Counter
}

// opMetrics are one collective's latency histogram and call count.
type opMetrics struct {
	latency *trace.Histogram
	count   *trace.Counter
}

// algoChoice names one algorithm picked for one collective family.
type algoChoice struct {
	fam string
	a   algo
}

// Option refines a group under construction.
type Option func(*Group)

// WithAlgorithm forces this group's algorithm family ("tree", "rd",
// "ring", "mcast", "comb"; empty or "auto" keeps automatic selection).
// "comb" selects HUB in-network combining for reduce/allreduce/barrier and
// requires core.WithHubCombining on the system (otherwise it degrades to
// the closest endpoint algorithm, like any other unusable override).
func WithAlgorithm(name string) Option {
	return func(g *Group) { g.forced = name }
}

// WithMaxRetries overrides the per-link stream retry bound (default 8 —
// enough to ride out a multi-millisecond link flap).
func WithMaxRetries(k int) Option {
	return func(g *Group) {
		if k > 0 {
			g.retries = k
		}
	}
}

// NewGroup declares collective group id over the given member CABs and
// allocates each member's protocol state (mailboxes and boxes) on its
// CAB. Ranks are canonical and deterministic: members are ordered by
// ascending CAB id, ties broken by position in cabs (so two groups over
// the same CAB set always agree on ranks). Use RankOf to map an input
// position to its rank.
//
// A CAB may appear more than once (several ranks share its kernel), but
// such a group cannot use the hardware-multicast path. Group ids
// partition box space: creating two live groups with the same id on the
// same CAB panics.
func NewGroup(sys *core.System, id int, cabs []int, opts ...Option) *Group {
	if id < 0 || id > MaxGroups {
		panic(fmt.Sprintf("coll: group id %d out of range 0..%d", id, MaxGroups))
	}
	if len(cabs) < 1 || len(cabs) > MaxMembers {
		panic(fmt.Sprintf("coll: group needs 1..%d members, got %d", MaxMembers, len(cabs)))
	}
	n := len(cabs)
	g := &Group{
		sys:  sys,
		id:   id,
		n:    n,
		base: boxBase + uint16(id)<<8,
		tr:   sys.Tr,
		reg:  sys.Reg,
		fr:   sys.FR,
	}
	g.retries = 8
	for _, opt := range opts {
		opt(g)
	}
	var err error
	if g.algo, err = parseAlgo(g.forced); err != nil {
		panic(err.Error())
	}

	// Canonical ranks: ascending CAB id, ties by input position.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cabs[idx[a]] < cabs[idx[b]] })
	g.members = make([]int, n)
	g.all = make([]int, n)
	g.rankOf = make([]int, n)
	distinct := true
	for r, i := range idx {
		g.members[r] = cabs[i]
		g.all[r] = r
		g.rankOf[i] = r
		if r > 0 && g.members[r] == g.members[r-1] {
			distinct = false
		}
	}
	g.mcastOK = distinct && n >= 2

	g.placeComb()

	g.comms = make([]*Comm, n)
	for r := 0; r < n; r++ {
		st := sys.CAB(g.members[r])
		box := g.base + uint16(r)
		if st.TP.Mailbox(box) != nil {
			panic(fmt.Sprintf("coll: group id %d already in use on CAB %d", id, g.members[r]))
		}
		mb := st.Kernel.NewMailbox(fmt.Sprintf("coll-g%d-r%d", id, r), 8<<20)
		st.TP.Register(box, mb)
		if g.mcastOK {
			st.TP.Register(g.base+groupSlot, mb)
		}
		g.comms[r] = &Comm{g: g, rank: r, st: st, mb: mb, box: box}
	}
	return g
}

// Size returns the number of members.
func (g *Group) Size() int { return g.n }

// ID returns the group id.
func (g *Group) ID() int { return g.id }

// CABOf returns the CAB id hosting rank r.
func (g *Group) CABOf(r int) int { return g.members[r] }

// RankOf returns the rank assigned to the i-th entry of the cabs slice
// passed to NewGroup.
func (g *Group) RankOf(i int) int { return g.rankOf[i] }

// MulticastCapable reports whether the group can use the HUB hardware
// multicast path (every member on a distinct CAB).
func (g *Group) MulticastCapable() bool { return g.mcastOK }

// Member returns rank r's collective endpoint. Its methods must be
// called from a thread on rank r's CAB.
func (g *Group) Member(r int) *Comm { return g.comms[r] }

// Comm is one member's view of the group: the endpoint every collective
// is driven through. All collectives are blocking and SPMD — every
// member must invoke the same sequence of operations with compatible
// arguments, as in any message-passing program.
type Comm struct {
	g    *Group
	rank int
	st   *core.CABStack
	mb   *kernel.Mailbox
	box  uint16

	seq     uint32
	pending []pmsg
}

// Rank returns this member's rank.
func (c *Comm) Rank() int { return c.rank }

// Group returns the owning group.
func (c *Comm) Group() *Group { return c.g }

// Wire header carried inside every collective payload (the transport's
// own tags are not visible to mailbox consumers, so coll frames its
// traffic): kind, group id, source rank, phase round, collective seq.
const hdrLen = 10

const (
	kData  byte = 1 // point-to-point collective data
	kMcast byte = 2 // hardware-multicast collective data
	kAck   byte = 3 // multicast ack bitmap (unreliable datagram)
)

type hdr struct {
	kind  byte
	gid   byte
	src   uint16
	round uint16
	seq   uint32
}

type pmsg struct {
	h    hdr
	data []byte
}

func (c *Comm) encode(kind byte, seq uint32, round uint16, payload []byte) []byte {
	w := make([]byte, hdrLen+len(payload))
	w[0] = kind
	w[1] = byte(c.g.id)
	binary.BigEndian.PutUint16(w[2:], uint16(c.rank))
	binary.BigEndian.PutUint16(w[4:], round)
	binary.BigEndian.PutUint32(w[6:], seq)
	copy(w[hdrLen:], payload)
	return w
}

func decode(w []byte) (hdr, []byte, bool) {
	if len(w) < hdrLen {
		return hdr{}, nil, false
	}
	return hdr{
		kind:  w[0],
		gid:   w[1],
		src:   binary.BigEndian.Uint16(w[2:]),
		round: binary.BigEndian.Uint16(w[4:]),
		seq:   binary.BigEndian.Uint32(w[6:]),
	}, w[hdrLen:], true
}

// recvMatch blocks until a message matching pred arrives, buffering
// non-matching traffic (a faster peer's next-collective messages) and
// dropping stale traffic (retransmitted copies of already-finished
// collectives, recognizable by seq < the current collective's seq).
// A negative timeout blocks forever; ok is false on timeout.
func (c *Comm) recvMatch(th *kernel.Thread, pred func(hdr) bool, timeout sim.Time) (pmsg, bool) {
	// Scan the buffer first, sweeping out stale entries.
	kept := c.pending[:0]
	var hit pmsg
	found := false
	for _, m := range c.pending {
		switch {
		case m.h.seq < c.seq:
			// stale: drop
		case !found && pred(m.h):
			hit, found = m, true
		default:
			kept = append(kept, m)
		}
	}
	c.pending = kept
	if found {
		return hit, true
	}
	deadline := sim.Time(math.MaxInt64)
	if timeout >= 0 {
		deadline = th.Proc().Now() + timeout
	}
	for {
		remain := deadline - th.Proc().Now()
		if remain <= 0 {
			return pmsg{}, false
		}
		var msg *kernel.Message
		if timeout < 0 {
			msg = c.mb.Get(th)
		} else {
			var ok bool
			msg, ok = c.mb.GetTimeout(th, remain)
			if !ok {
				return pmsg{}, false
			}
		}
		wire := msg.Bytes()
		c.mb.Release(msg)
		h, body, ok := decode(wire)
		if !ok || int(h.gid) != c.g.id || h.seq < c.seq {
			continue // foreign or stale: drop
		}
		m := pmsg{h: h, data: append([]byte(nil), body...)}
		if pred(h) {
			return m, true
		}
		c.pending = append(c.pending, m)
	}
}

// recvFrom blocks for the point-to-point message (seq, src, round).
func (c *Comm) recvFrom(th *kernel.Thread, seq uint32, src int, round uint16) pmsg {
	m, _ := c.recvMatch(th, func(h hdr) bool {
		return h.kind == kData && h.seq == seq && int(h.src) == src && h.round == round
	}, -1)
	return m
}

// sendTo reliably delivers a collective message to dstRank over the
// byte-stream transport, retrying with exponential backoff when the
// transport reports failure (peer declared dead during a fault window,
// retransmission budget exhausted) so collectives ride out link flaps.
func (c *Comm) sendTo(th *kernel.Thread, dstRank int, kind byte, seq uint32, round uint16, payload []byte) error {
	wire := c.encode(kind, seq, round, payload)
	dstCAB := c.g.members[dstRank]
	dstBox := c.g.base + uint16(dstRank)
	backoff := 250 * sim.Microsecond
	var err error
	for attempt := 0; ; attempt++ {
		err = c.st.TP.StreamSend(th, dstCAB, dstBox, c.box, wire)
		if err == nil {
			return nil
		}
		if attempt >= c.g.retries {
			break
		}
		c.g.reg.Counter("coll.send_retries").Inc()
		th.Sleep(backoff)
		if backoff < 4*sim.Millisecond {
			backoff *= 2
		}
	}
	return fmt.Errorf("coll: group %d rank %d -> rank %d: %w", c.g.id, c.rank, dstRank, err)
}

// op wraps one collective invocation: it advances the collective
// sequence number, opens a span, and records latency and count metrics.
func (c *Comm) op(th *kernel.Thread, name string, body func(seq uint32) error) error {
	c.seq++
	seq := c.seq
	g := c.g
	if g.tr != nil {
		sp := g.tr.Start(nil, trace.LayerColl, c.st.Board.Name(), "coll:"+name)
		prev := th.SetSpan(sp)
		defer func() { th.SetSpan(prev); sp.End() }()
	}
	t0 := th.Proc().Now()
	err := body(seq)
	if g.reg != nil {
		m := g.metricsOf(name)
		m.latency.Add(th.Proc().Now() - t0)
		m.count.Inc()
		if err != nil {
			g.reg.Counter("coll.errors").Inc()
		}
	}
	return err
}

// metricsOf returns collective name's instruments, registering them on
// the group's first use of name. g.reg must not be nil.
func (g *Group) metricsOf(name string) opMetrics {
	m, ok := g.opMetrics[name]
	if !ok {
		m = opMetrics{
			latency: g.reg.Histogram("coll." + name + ".latency"),
			count:   g.reg.Counter("coll." + name + ".count"),
		}
		if g.opMetrics == nil {
			g.opMetrics = make(map[string]opMetrics)
		}
		g.opMetrics[name] = m
	}
	return m
}

// countAlgo counts one choice of algorithm a for family fam, registering
// the counter on the group's first such choice.
func (g *Group) countAlgo(fam string, a algo) {
	if g.reg == nil {
		return
	}
	k := algoChoice{fam, a}
	c, ok := g.algoCounts[k]
	if !ok {
		c = g.reg.Counter("coll." + fam + ".algo." + algoName(a))
		if g.algoCounts == nil {
			g.algoCounts = make(map[algoChoice]*trace.Counter)
		}
		g.algoCounts[k] = c
	}
	c.Inc()
}

// Op is a reduction operator over fixed-size elements. Combine folds src
// into dst element-wise; both slices have equal length, a multiple of
// Elem. All built-in operators are commutative and associative, so every
// algorithm computes the same value (floating-point sums are combined in
// a deterministic order per algorithm).
//
// Commutative declares that Combine(a, b) == Combine(b, a) per element.
// The recursive-doubling, ring, and HUB-combining allreduce paths fold
// operands in rank-dependent orders and are only correct for commutative
// operators; algorithm selection routes non-commutative custom operators
// to the binomial tree (fixed association, ascending-rank combine order)
// and panics if such an operator is forced onto "rd", "ring", or "comb".
type Op struct {
	Name        string
	Elem        int
	Commutative bool
	Combine     func(dst, src []byte)
}

// Built-in reduction operators over little-endian 8-byte lanes.
var (
	SumInt64 = Op{Name: "sum_i64", Elem: 8, Commutative: true, Combine: func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			v := int64(binary.LittleEndian.Uint64(dst[i:])) + int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(v))
		}
	}}
	MaxInt64 = Op{Name: "max_i64", Elem: 8, Commutative: true, Combine: func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			a := int64(binary.LittleEndian.Uint64(dst[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			if b > a {
				binary.LittleEndian.PutUint64(dst[i:], uint64(b))
			}
		}
	}}
	SumFloat64 = Op{Name: "sum_f64", Elem: 8, Commutative: true, Combine: func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:])) +
				math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(v))
		}
	}}
	// noop carries barrier signals through the reduce tree.
	noop = Op{Name: "noop", Elem: 1, Commutative: true, Combine: func(dst, src []byte) {}}
)

// Int64Bytes encodes values for the int64 operators.
func Int64Bytes(vals []int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

// BytesInt64 decodes an int64 operator payload.
func BytesInt64(b []byte) []int64 {
	vals := make([]int64, len(b)/8)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}

// Float64Bytes encodes values for the float64 operators.
func Float64Bytes(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// BytesFloat64 decodes a float64 operator payload.
func BytesFloat64(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}
