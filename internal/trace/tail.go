package trace

import "repro/internal/sim"

// Tail-based span sampling. Full tracing retains every span up to a hard
// limit — affordable for one experiment, not for a fleet where millions of
// messages are routine and only the anomalies matter. With tail sampling
// enabled, spans buffer per causality tree until the tree's root closes
// (the delivery or response that completes the message); at that point the
// whole tree is either retained or discarded:
//
//   - retained when the root's latency reaches the tree's SLO bound (the
//     per-tag bound for tagged roots, else the default bound),
//   - retained when any span in the tree was marked anomalous (MarkError),
//   - retained when the root falls on the deterministic 1-in-HeadEvery
//     head sample (so the baseline stays observable),
//   - discarded otherwise, freeing the buffered spans.
//
// Undecided trees live in a bounded FIFO; past MaxBuffered the oldest is
// force-decided using its latency so far (a stuck tree naturally breaches
// its bound and is kept). Every decision is a pure function of the span
// stream, so sampled runs replay byte-identically.

// DefaultTailBuffered bounds undecided buffered trees when
// TailConfig.MaxBuffered is zero.
const DefaultTailBuffered = 1024

// DefaultTailHeadEvery is the head-sampling period used by wiring layers
// that enable tail sampling without an explicit choice. Prime, so the
// deterministic 1-in-N root sample cannot phase-lock onto periodic traffic
// (a client looping request/ack/ping creates roots in a short repeating
// pattern; a power-of-two period would sample the same message class every
// time).
const DefaultTailHeadEvery = 61

// TailConfig parameterizes tail-based sampling.
type TailConfig struct {
	// HeadEvery retains every HeadEvery-th root tree regardless of
	// latency, deterministically by root creation order (0: no head
	// sampling).
	HeadEvery int
	// Bound retains trees whose root latency (end - start, or now - start
	// at a forced decision) reaches it (0: no latency-based retention for
	// untagged roots).
	Bound sim.Time
	// TagBounds maps a root span's tag (see Span.SetTag; the transport
	// stamps the wire protocol byte) to a per-class bound overriding
	// Bound. A tag present with bound 0 disables latency-based retention
	// for that class outright — e.g. unreliable datagrams with no
	// latency objective.
	TagBounds map[uint8]sim.Time
	// MaxBuffered bounds undecided trees (0: DefaultTailBuffered).
	MaxBuffered int
}

// tailTree is one undecided buffered causality tree.
type tailTree struct {
	root  *Span
	spans []*Span
	seq   uint64 // 1-based root creation index (head-sample key)
}

// Root tail verdicts (Span.tailMark).
const (
	tailKept    int8 = 1
	tailDropped int8 = -1
)

type tailState struct {
	cfg   TailConfig
	trees map[*Span]*tailTree
	// order is the undecided-root FIFO (decided roots are skipped when
	// popped; trees keeps the authoritative set).
	order   sim.FIFO[*Span]
	rootSeq uint64

	treesKept    int64
	treesDropped int64
	spansDropped int64
}

// EnableTailSampling arms tail-based sampling with cfg. Call it before the
// first span is created; enabling it on a tracer that already holds spans
// leaves those retained. A config with no retention rule at all (no
// HeadEvery, Bound or TagBounds) still arms buffering — every tree is then
// discarded except errored ones.
func (t *Tracer) EnableTailSampling(cfg TailConfig) {
	if t == nil {
		return
	}
	if cfg.MaxBuffered <= 0 {
		cfg.MaxBuffered = DefaultTailBuffered
	}
	t.tail = &tailState{cfg: cfg, trees: make(map[*Span]*tailTree)}
}

// TailSampling reports whether tail-based sampling is armed.
func (t *Tracer) TailSampling() bool { return t != nil && t.tail != nil }

// tailAdmit routes a newly created span into its tree's buffer (or
// straight to the retained/discarded set when the tree is already decided).
func (t *Tracer) tailAdmit(s *Span) {
	ts := t.tail
	if s.parent == nil {
		ts.rootSeq++
		tree := &tailTree{root: s, seq: ts.rootSeq, spans: []*Span{s}}
		ts.trees[s] = tree
		ts.order.Push(s)
		t.tailEvict()
		if ts.order.Len() > 2*ts.cfg.MaxBuffered {
			ts.compactOrder()
		}
		return
	}
	root := s.Root()
	if tree, ok := ts.trees[root]; ok {
		tree.spans = append(tree.spans, s)
		return
	}
	// Late child of a decided tree: follow the root's verdict.
	if root.tailMark == tailKept {
		t.retain(s)
	} else {
		ts.spansDropped++
	}
}

// tailEvict force-decides the oldest undecided tree once the buffer
// overflows, using latency-so-far for still-open roots.
func (t *Tracer) tailEvict() {
	ts := t.tail
	for len(ts.trees) > ts.cfg.MaxBuffered && ts.order.Len() > 0 {
		if tree, ok := ts.trees[ts.order.Pop()]; ok {
			t.tailFinish(tree)
		}
	}
}

// compactOrder drops the decided roots from order, which tailEvict never
// pops when they decide on time, and keeps the rest in order. Run once
// order holds twice MaxBuffered, it costs O(1) per root.
func (ts *tailState) compactOrder() {
	for n := ts.order.Len(); n > 0; n-- {
		if r := ts.order.Pop(); ts.trees[r] != nil {
			ts.order.Push(r)
		}
	}
}

// tailDecide is called at the first close of a root span (span.go EndAt).
func (t *Tracer) tailDecide(root *Span) {
	if tree, ok := t.tail.trees[root]; ok {
		t.tailFinish(tree)
	}
}

// tailBound returns the latency bound applying to a root: its tag's entry
// when present (possibly 0 = none), else the default bound.
func (ts *tailState) tailBound(root *Span) sim.Time {
	if b, ok := ts.cfg.TagBounds[root.tag]; ok {
		return b
	}
	return ts.cfg.Bound
}

// tailFinish applies the retention rules to an undecided tree and moves
// its spans to the retained set or drops them.
func (t *Tracer) tailFinish(tree *tailTree) {
	ts := t.tail
	root := tree.root
	lat := root.end - root.start
	if !root.ended {
		lat = t.eng.Now() - root.start
	}
	keep := root.errFlag
	if !keep {
		if b := ts.tailBound(root); b > 0 && lat >= b {
			keep = true
		}
	}
	if !keep && ts.cfg.HeadEvery > 0 && (tree.seq-1)%uint64(ts.cfg.HeadEvery) == 0 {
		keep = true
	}
	if keep {
		root.tailMark = tailKept
		for _, s := range tree.spans {
			t.retain(s)
		}
		ts.treesKept++
	} else {
		root.tailMark = tailDropped
		ts.spansDropped += int64(len(tree.spans))
		ts.treesDropped++
	}
	delete(ts.trees, root)
}

// FlushTail decides every still-buffered tree (oldest first), scoring
// open roots by latency so far. Call it after the run, before reading
// Spans, so trees whose roots never closed — in-flight or failed
// operations — are not silently invisible. Nil-safe and a no-op without
// tail sampling.
func (t *Tracer) FlushTail() {
	if t == nil || t.tail == nil {
		return
	}
	ts := t.tail
	for ts.order.Len() > 0 {
		if tree, ok := ts.trees[ts.order.Pop()]; ok {
			t.tailFinish(tree)
		}
	}
}

// TailRoots returns how many root trees the sampler has seen (decided or
// not).
func (t *Tracer) TailRoots() int64 {
	if t == nil || t.tail == nil {
		return 0
	}
	return int64(t.tail.rootSeq)
}

// TailKept returns how many trees were retained.
func (t *Tracer) TailKept() int64 {
	if t == nil || t.tail == nil {
		return 0
	}
	return t.tail.treesKept
}

// TailDropped returns how many trees were discarded.
func (t *Tracer) TailDropped() int64 {
	if t == nil || t.tail == nil {
		return 0
	}
	return t.tail.treesDropped
}

// TailSpansDropped returns how many individual spans were discarded by
// tail decisions (not counting the tracer's hard limit).
func (t *Tracer) TailSpansDropped() int64 {
	if t == nil || t.tail == nil {
		return 0
	}
	return t.tail.spansDropped
}

// TailPending returns the number of undecided buffered trees.
func (t *Tracer) TailPending() int {
	if t == nil || t.tail == nil {
		return 0
	}
	return len(t.tail.trees)
}
