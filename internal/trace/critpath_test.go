package trace

import (
	"testing"

	"repro/internal/sim"
)

// buildPath makes a synthetic message tree: root [0,1000], one transport
// span [0,100] with a nested datalink sub-span [20,60] (union must not
// double-count), a fiber hop [100,200], and two hub hops — one uncontended
// [200,250] and one queued [250,850] — with hubService 50.
func buildPath(t *testing.T) (*Tracer, *Span) {
	t.Helper()
	e := sim.NewEngine()
	tr := NewTracer(e, 0)
	root := tr.Start(nil, LayerApp, "cab0", "msg")
	tp := root.ChildAt(0, LayerTransport, "cab0", "tp-send")
	dl := tp.ChildAt(20, LayerTransport, "cab0", "tp-frag") // nested same layer
	dl.EndAt(60)
	tp.EndAt(100)
	fib := root.ChildAt(100, LayerFiber, "cab0->hub1", "tx")
	fib.EndAt(200)
	h1 := root.ChildAt(200, LayerHub, "hub1.p0", "xbar")
	h1.EndAt(250)
	h2 := root.ChildAt(250, LayerHub, "hub2.p3", "xbar")
	h2.EndAt(850)
	root.EndAt(1000)
	return tr, root
}

func TestCriticalPathDecomposition(t *testing.T) {
	tr, root := buildPath(t)
	pb := CriticalPath(tr, root, 50)
	if pb.Total != 1000 {
		t.Fatalf("Total = %v", pb.Total)
	}
	// Hub1: 50 all service. Hub2: 600 = 50 service + 550 queue.
	if pb.Service != 100 || pb.Queue != 550 {
		t.Fatalf("service/queue = %v/%v, want 100/550", pb.Service, pb.Queue)
	}
	if pb.Propagation != 100 {
		t.Fatalf("propagation = %v, want 100", pb.Propagation)
	}
	// Transport software is the union [0,100], not 100+40.
	if pb.Software != 100 {
		t.Fatalf("software = %v, want 100 (union, no double count)", pb.Software)
	}
	mq := pb.MaxQueue()
	if mq.Comp != "hub2.p3" || mq.Time != 550 {
		t.Fatalf("MaxQueue = %+v", mq)
	}
	// Slices are sorted largest first.
	if pb.Slices[0].Comp != "hub2.p3" || pb.Slices[0].Kind != PathQueue {
		t.Fatalf("largest slice = %+v", pb.Slices[0])
	}
}

// TestCriticalPathMulticastTree decomposes a multicast-shaped tree: one
// send, one fiber up to the HUB, then a three-way crossbar fan-out where
// each branch has its own output port, fiber, and receive processing. The
// branches overlap in wall time (the HUB copies the packet to every output
// register in the same cycle), which is exactly where attribution and
// timeline diverge: per-port queue/service must SUM across branches (each
// port really spent that time), while same-layer receive software on the
// three destinations must UNION (it is concurrent, not serial).
func TestCriticalPathMulticastTree(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracer(e, 0)
	root := tr.Start(nil, LayerColl, "cab0", "coll:bcast")
	send := root.ChildAt(0, LayerDatalink, "cab0", "dl-send-packet")
	send.EndAt(100)
	up := root.ChildAt(100, LayerFiber, "cab0->hub0", "tx")
	up.EndAt(200)
	// Fan-out: three output ports, all starting together at 200. Port 3 is
	// congested (400 beyond the 50 service), the others go straight through.
	ports := []struct {
		comp string
		end  sim.Time
	}{{"hub0.p1", 250}, {"hub0.p2", 250}, {"hub0.p3", 650}}
	for _, p := range ports {
		h := root.ChildAt(200, LayerHub, p.comp, "xbar")
		h.EndAt(p.end)
		f := root.ChildAt(p.end, LayerFiber, p.comp+"->", "tx")
		f.EndAt(p.end + 100)
		// Receiver processing overlaps across destinations: all three dl-recv
		// spans share [350, 450] wall time (they run on different CABs).
		r := root.ChildAt(350, LayerDatalink, "dst-recv", "dl-recv")
		r.EndAt(450)
	}
	root.EndAt(800)

	pb := CriticalPath(tr, root, 50)
	if pb.Total != 800 {
		t.Fatalf("Total = %v, want 800", pb.Total)
	}
	// Port time sums across the fan-out: 3 x 50 service, 400 queue on p3.
	if pb.Service != 150 || pb.Queue != 400 {
		t.Fatalf("service/queue = %v/%v, want 150/400", pb.Service, pb.Queue)
	}
	// Propagation sums per fiber: 100 up + 3 x 100 down.
	if pb.Propagation != 400 {
		t.Fatalf("propagation = %v, want 400", pb.Propagation)
	}
	// Software: send [0,100] + receive union [350,450] (NOT 100 + 3x100).
	if pb.Software != 200 {
		t.Fatalf("software = %v, want 200 (concurrent receives must union)", pb.Software)
	}
	// Each port appears as its own slice; the congested branch wins MaxQueue.
	hubComps := map[string]bool{}
	for _, s := range pb.Slices {
		if s.Kind == PathService {
			hubComps[s.Comp] = true
		}
	}
	if len(hubComps) != 3 {
		t.Fatalf("hub fan-out comps = %v, want 3 ports", hubComps)
	}
	if mq := pb.MaxQueue(); mq.Comp != "hub0.p3" || mq.Time != 400 {
		t.Fatalf("MaxQueue = %+v, want hub0.p3/400", mq)
	}
}

func TestCriticalPathNilSafe(t *testing.T) {
	if CriticalPath(nil, nil, 50) != nil {
		t.Fatal("nil tracer should yield nil breakdown")
	}
	if CriticalPathIn(nil, nil, 50) != nil {
		t.Fatal("nil root should yield nil breakdown")
	}
}

func TestCriticalPathIgnoresUnendedSpans(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracer(e, 0)
	root := tr.Start(nil, LayerApp, "cab0", "msg")
	open := root.ChildAt(0, LayerHub, "hub1.p0", "xbar")
	_ = open // never ended: a hop still in flight must not be attributed
	root.EndAt(100)
	pb := CriticalPath(tr, root, 50)
	if pb.Queue != 0 || pb.Service != 0 || len(pb.Slices) != 0 {
		t.Fatalf("unended span attributed: %+v", pb)
	}
}

func TestQuantileRoot(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracer(e, 0)
	var roots []*Span
	for i := 1; i <= 100; i++ {
		r := tr.Start(nil, LayerApp, "cab0", "msg")
		r.EndAt(sim.Time(i) * 10)
		roots = append(roots, r)
	}
	if got := QuantileRoot(roots, 0.5).Duration(); got != 500 {
		t.Fatalf("p50 duration = %v, want 500", got)
	}
	if got := QuantileRoot(roots, 0.99).Duration(); got != 990 {
		t.Fatalf("p99 duration = %v, want 990", got)
	}
	if got := QuantileRoot(roots, 1).Duration(); got != 1000 {
		t.Fatalf("p100 duration = %v, want 1000", got)
	}
	if QuantileRoot(nil, 0.5) != nil {
		t.Fatal("no roots should yield nil")
	}
	unended := tr.Start(nil, LayerApp, "cab0", "msg")
	if QuantileRoot([]*Span{unended}, 0.5) != nil {
		t.Fatal("unended roots should yield nil")
	}
}

// GroupByRoot buckets every span under its tree's root, and the bucket is
// all CriticalPathIn needs: it decomposes the same as the whole trace.
func TestGroupByRoot(t *testing.T) {
	tr, root := buildPath(t)
	byRoot := GroupByRoot(tr.Spans())
	if len(byRoot[root]) != len(tr.Spans()) {
		t.Fatalf("GroupByRoot bucket = %d spans, want %d", len(byRoot[root]), len(tr.Spans()))
	}
	in, whole := CriticalPathIn(byRoot[root], root, 50), CriticalPath(tr, root, 50)
	if in.Total != whole.Total || in.Queue != whole.Queue || in.Service != whole.Service ||
		in.Propagation != whole.Propagation || in.Software != whole.Software {
		t.Fatalf("CriticalPathIn over the bucket = %+v, want %+v", in, whole)
	}
}

func TestBreakdownSingleHop(t *testing.T) {
	// A single-hop (no-mesh) exchange: one app root over transport and
	// datalink, no HUB or fiber spans at all — the shape of a loopback or
	// same-board message. Breakdown must cover exactly the layers present.
	e := sim.NewEngine()
	tr := NewTracer(e, 0)
	root := tr.Start(nil, LayerApp, "cab0", "msg")
	tp := root.ChildAt(0, LayerTransport, "cab0", "tp-send")
	dl := tp.ChildAt(10, LayerDatalink, "cab0", "dl-send")
	dl.EndAt(40)
	tp.EndAt(50)
	root.EndAt(60)

	stats := Breakdown(tr.Spans())
	byLayer := map[string]LayerStat{}
	for _, st := range stats {
		byLayer[st.Layer] = st
	}
	if len(byLayer) != 3 {
		t.Fatalf("Breakdown layers = %v, want app/transport/datalink only", stats)
	}
	if st := byLayer[LayerTransport]; st.Spans != 1 || st.Total != 50 || st.Busy != 50 {
		t.Fatalf("transport stat = %+v", st)
	}
	if st := byLayer[LayerDatalink]; st.Busy != 30 {
		t.Fatalf("datalink stat = %+v", st)
	}
	if _, ok := byLayer[LayerHub]; ok {
		t.Fatal("single-hop tree must not report a hub layer")
	}
}
