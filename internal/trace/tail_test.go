package trace

import (
	"testing"

	"repro/internal/sim"
)

// tailTracer arms a tracer with head sampling off by default so retention
// comes only from the rules under test.
func tailTracer(cfg TailConfig) (*sim.Engine, *Tracer) {
	e := sim.NewEngine()
	tr := NewTracer(e, 0)
	tr.EnableTailSampling(cfg)
	return e, tr
}

// oneTree builds a root with one child, both closed, with the given root
// latency.
func oneTree(tr *Tracer, at, lat sim.Time) *Span {
	root := tr.StartAt(nil, at, LayerApp, "cab0", "msg")
	c := root.ChildAt(at, LayerTransport, "cab0", "tp-send")
	c.EndAt(at + lat/2)
	root.EndAt(at + lat)
	return root
}

func TestTailRetainsBreachingTree(t *testing.T) {
	_, tr := tailTracer(TailConfig{Bound: 1000})
	slow := oneTree(tr, 0, 1500) // breaches
	oneTree(tr, 10_000, 100)     // under the bound: dropped

	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("%d spans retained, want 2 (breaching tree only)", got)
	}
	for _, s := range tr.Spans() {
		if s.Root() != slow {
			t.Fatalf("retained span from the wrong tree: %s/%s", s.Comp(), s.Name())
		}
	}
	if tr.TailKept() != 1 || tr.TailDropped() != 1 || tr.TailRoots() != 2 {
		t.Fatalf("kept/dropped/roots = %d/%d/%d, want 1/1/2",
			tr.TailKept(), tr.TailDropped(), tr.TailRoots())
	}
	if tr.TailSpansDropped() != 2 {
		t.Fatalf("spans dropped = %d, want 2", tr.TailSpansDropped())
	}
}

func TestTailRetainsErroredTree(t *testing.T) {
	_, tr := tailTracer(TailConfig{Bound: 1_000_000})
	root := tr.StartAt(nil, 0, LayerApp, "cab0", "msg")
	c := root.ChildAt(0, LayerTransport, "cab0", "tp-send")
	c.MarkError() // marking any span in the tree flags the root
	c.EndAt(10)
	root.EndAt(20) // far under the bound, kept anyway

	if tr.TailKept() != 1 || len(tr.Spans()) != 2 {
		t.Fatalf("errored tree not retained: kept=%d spans=%d", tr.TailKept(), len(tr.Spans()))
	}
}

func TestTailHeadSampleDeterministic(t *testing.T) {
	_, tr := tailTracer(TailConfig{HeadEvery: 3, Bound: 1 << 40})
	for i := 0; i < 9; i++ {
		oneTree(tr, sim.Time(i)*1000, 10) // all fast: only head samples survive
	}
	// Roots 1, 4, 7 (1-based creation order, every 3rd starting at the
	// first) are the deterministic head sample.
	if tr.TailKept() != 3 || tr.TailDropped() != 6 {
		t.Fatalf("kept/dropped = %d/%d, want 3/6", tr.TailKept(), tr.TailDropped())
	}
}

func TestTailPerTagBounds(t *testing.T) {
	_, tr := tailTracer(TailConfig{
		Bound:     1000,
		TagBounds: map[uint8]sim.Time{7: 100, 9: 0},
	})
	tagged := tr.StartAt(nil, 0, LayerApp, "cab0", "msg")
	tagged.SetTag(7)
	tagged.EndAt(500) // over its 100 tag bound, under the default: kept

	exempt := tr.StartAt(nil, 0, LayerApp, "cab0", "msg")
	exempt.SetTag(9)
	exempt.EndAt(5000) // tag bound 0 disables latency retention: dropped

	plain := tr.StartAt(nil, 0, LayerApp, "cab0", "msg")
	plain.EndAt(500) // untagged, under the default bound: dropped

	if tr.TailKept() != 1 || tr.TailDropped() != 2 {
		t.Fatalf("kept/dropped = %d/%d, want 1/2", tr.TailKept(), tr.TailDropped())
	}
	if tr.Spans()[0] != tagged {
		t.Fatal("wrong tree survived the per-tag bounds")
	}
}

// TestTailLateChildFollowsVerdict covers the chained-RPC case: response-leg
// spans created after the root's first close (the tail decision point) must
// follow the tree's verdict instead of buffering forever.
func TestTailLateChildFollowsVerdict(t *testing.T) {
	_, tr := tailTracer(TailConfig{Bound: 100})
	kept := oneTree(tr, 0, 500)   // decided: kept
	dropped := oneTree(tr, 0, 10) // decided: dropped
	before := len(tr.Spans())

	late := kept.ChildAt(600, LayerTransport, "cab1", "tp-resp")
	late.EndAt(700)
	if len(tr.Spans()) != before+1 {
		t.Fatal("late child of a kept tree was not retained")
	}

	droppedBefore := tr.TailSpansDropped()
	lost := dropped.ChildAt(600, LayerTransport, "cab1", "tp-resp")
	lost.EndAt(700)
	if len(tr.Spans()) != before+1 {
		t.Fatal("late child of a dropped tree leaked into the retained set")
	}
	if tr.TailSpansDropped() != droppedBefore+1 {
		t.Fatalf("late dropped child not counted: %d -> %d", droppedBefore, tr.TailSpansDropped())
	}
}

// TestTailEvictionForceDecides fills the undecided buffer past MaxBuffered:
// the oldest tree must be force-decided by latency so far, so a stuck tree
// (root never closes) is kept once it has outlived the bound.
func TestTailEvictionForceDecides(t *testing.T) {
	e, tr := tailTracer(TailConfig{Bound: 1000, MaxBuffered: 2})
	e.At(0, func() {
		tr.Start(nil, LayerApp, "cab0", "stuck") // never ends
	})
	e.At(5000, func() {
		// Two more undecided roots push the buffer to 3 > 2: the stuck
		// tree is evicted with latency-so-far 5000 >= 1000, so kept.
		tr.Start(nil, LayerApp, "cab0", "r2")
		tr.Start(nil, LayerApp, "cab0", "r3")
	})
	e.RunUntil(10_000)
	if tr.TailKept() != 1 {
		t.Fatalf("stuck tree not force-kept at eviction: kept=%d", tr.TailKept())
	}
	if tr.TailPending() != 2 {
		t.Fatalf("pending = %d, want 2", tr.TailPending())
	}
	if len(tr.Spans()) != 1 || tr.Spans()[0].Name() != "stuck" {
		t.Fatal("retained set should hold exactly the stuck root")
	}
}

func TestFlushTailDecidesEverything(t *testing.T) {
	e, tr := tailTracer(TailConfig{Bound: 1000})
	e.At(0, func() {
		tr.Start(nil, LayerApp, "cab0", "open-slow") // latency-so-far will breach
	})
	e.At(900, func() {
		tr.Start(nil, LayerApp, "cab0", "open-fast") // latency-so-far under bound
	})
	e.RunUntil(1500)
	if tr.TailPending() != 2 {
		t.Fatalf("pending before flush = %d, want 2", tr.TailPending())
	}
	tr.FlushTail()
	if tr.TailPending() != 0 {
		t.Fatalf("pending after flush = %d, want 0", tr.TailPending())
	}
	// open-slow: 1500ns so far >= 1000 bound. open-fast: 600ns, dropped.
	if tr.TailKept() != 1 || tr.TailDropped() != 1 {
		t.Fatalf("kept/dropped = %d/%d, want 1/1", tr.TailKept(), tr.TailDropped())
	}
	if len(tr.Spans()) != 1 || tr.Spans()[0].Name() != "open-slow" {
		t.Fatal("flush should retain exactly the breaching open tree")
	}
}

// The tail-disabled span path must stay allocation-free beyond the span
// records themselves: tail admission is a nil check.
func TestTailDisabledNoOverhead(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracer(e, 0)
	if tr.TailSampling() {
		t.Fatal("tail sampling should be off by default")
	}
	oneTree(tr, 0, 100)
	if len(tr.Spans()) != 2 {
		t.Fatal("without tail sampling every span is retained")
	}
	if tr.TailRoots() != 0 || tr.TailKept() != 0 || tr.TailDropped() != 0 ||
		tr.TailSpansDropped() != 0 || tr.TailPending() != 0 {
		t.Fatal("tail counters must read zero when sampling is off")
	}
	tr.FlushTail() // nil-safe no-op
}

// BenchmarkDisabledTracingSpan measures the fully-disabled instrumentation
// path (nil tracer) that every send traverses when tracing is off — the
// counterpart of slo.BenchmarkObserveDisabled.
func BenchmarkDisabledTracingSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(nil, LayerApp, "c", "x")
		c := sp.Child(LayerTransport, "c", "y")
		c.End()
		sp.End()
	}
}

// TestTailOrderStaysBounded: roots that decide on time leave the
// undecided-root queue within a bounded number of admissions, whether or
// not an older root stays open ahead of them, and a root that never
// closes is still decided by FlushTail.
func TestTailOrderStaysBounded(t *testing.T) {
	const maxBuffered, roots = 64, 100_000
	for _, tc := range []struct {
		name  string
		stuck bool
	}{{"on-time", false}, {"behind-stuck-root", true}} {
		t.Run(tc.name, func(t *testing.T) {
			_, tr := tailTracer(TailConfig{Bound: 1000, MaxBuffered: maxBuffered})
			var stuck *Span
			if tc.stuck {
				stuck = tr.StartAt(nil, 0, LayerApp, "cab0", "msg")
			}
			for i := 0; i < roots; i++ {
				oneTree(tr, sim.Time(i)*1000, 10)
				if n := tr.tail.order.Len(); n > 2*maxBuffered {
					t.Fatalf("after %d roots the queue holds %d, want <= %d", i+1, n, 2*maxBuffered)
				}
			}
			if tc.stuck && stuck.tailMark != 0 {
				t.Fatal("the open root was decided before FlushTail")
			}
			tr.FlushTail()
			if tr.TailPending() != 0 || tr.tail.order.Len() != 0 {
				t.Fatalf("after FlushTail: %d trees pending, %d queued", tr.TailPending(), tr.tail.order.Len())
			}
			if tc.stuck && stuck.tailMark == 0 {
				t.Fatal("FlushTail left the open root undecided")
			}
		})
	}
}
