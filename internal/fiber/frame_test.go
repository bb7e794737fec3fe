package fiber

import (
	"reflect"
	"testing"
)

// trackedFrame returns a frame of n items from s whose last two items are
// tracked, as a unicast packet-switched frame's packet and close all are.
func trackedFrame(s *FrameStore, n int) *Frame {
	f := s.Get(n)
	f.Items[n-2] = Item{Kind: KindPacket, Payload: []byte{1, 2, 3}}
	f.Items[n-1] = Item{Kind: KindCommand, Cmd: Command{Op: 1, Hub: 0xFF}}
	f.Track(n - 2)
	f.Track(n - 1)
	return f
}

func TestFrameReusedOnlyAfterEveryTrackedItem(t *testing.T) {
	var s FrameStore
	f := trackedFrame(&s, 3)
	f.Items[1].Consume()
	if g := s.Get(3); g == f {
		t.Fatal("frame handed out again with a tracked item outstanding")
	}
	f.Items[2].Consume()
	if g := s.Get(3); g != f {
		t.Fatal("frame not handed out again after every tracked item was consumed")
	}
	if s.Made() != 2 {
		t.Fatalf("Made() = %d, want 2", s.Made())
	}
}

func TestConsumeUntrackedOrCloneChangesNothing(t *testing.T) {
	var s FrameStore
	f := trackedFrame(&s, 3)
	(&Item{Kind: KindPacket}).Consume() // never framed
	f.Items[0].Consume()                // framed but untracked
	c := f.Items[1].Clone()
	c.Consume() // a multicast branch or loopback copy
	f.Items[2].Consume()
	f.Items[2].Consume() // a second consumption of the same item
	if c.Payload == nil || f.Items[1].Payload == nil {
		t.Fatal("items cleared with the packet outstanding")
	}
	if g := s.Get(3); g == f {
		t.Fatal("frame released with the packet outstanding")
	}
	f.Items[1].Consume()
	if g := s.Get(3); g != f {
		t.Fatal("frame not released by its own packet")
	}
}

func TestCloneMarksBothShared(t *testing.T) {
	it := &Item{Kind: KindPacket, Payload: []byte{1, 2, 3}}
	c := it.Clone()
	if !it.Shared || !c.Shared || !c.Clone().Shared {
		t.Fatalf("shared: item %v, clone %v; want both marked, and every clone of a clone", it.Shared, c.Shared)
	}
}

func TestReleasedFrameReadsZero(t *testing.T) {
	var s FrameStore
	f := trackedFrame(&s, 4)
	f.Items[0] = Item{Kind: KindCommand, Cmd: Command{Op: 7, Hub: 1, Param: 2}, Token: 9, Hops: 1}
	pkt := &f.Items[2]
	pkt.Start, pkt.FrameError, pkt.ReplyTo = 5, true, &sink{}
	f.Items[3].Consume()
	pkt.Consume()
	for i := range f.Items {
		if !reflect.DeepEqual(f.Items[i], Item{}) {
			t.Fatalf("released item %d = %+v, want zero", i, f.Items[i])
		}
	}
}

func TestGetReusesOnlyTheRequestedLength(t *testing.T) {
	var s FrameStore
	f := trackedFrame(&s, 3)
	f.Items[1].Consume()
	f.Items[2].Consume()
	for _, n := range []int{2, 4} {
		if g := s.Get(n); g == f || len(g.Items) != n {
			t.Fatalf("Get(%d) returned a frame of %d items (the released one: %v)", n, len(g.Items), g == f)
		}
	}
	if g := s.Get(3); g != f {
		t.Fatal("Get(3) did not reuse the released 3-item frame")
	}
	if s.Made() != 3 {
		t.Fatalf("Made() = %d, want 3", s.Made())
	}
}

func TestBodyClasses(t *testing.T) {
	var s FrameStore
	for _, tc := range []struct{ n, cap int }{
		{0, 32}, {1, 32}, {32, 32}, {33, 64}, {96, 128}, {1022, maxBody}, {maxBody, maxBody},
		{maxBody + 1, maxBody + 1}, {4000, 4000},
	} {
		if b := s.Body(tc.n); len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("Body(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.cap)
		}
	}
}

// releaseBodies releases n fresh bodies of one byte, so that a body released
// before them leaves the quarantine.
func releaseBodies(s *FrameStore, n int) {
	for range n {
		b := make([]byte, 1, 32)
		b[0] = 1
		s.PutBody(b)
	}
}

func TestBodyReusedAfterQuarantineByClass(t *testing.T) {
	var s FrameStore
	b := s.Body(100)
	copy(b, "wire")
	s.PutBody(b)
	if g := s.Body(100); &g[0] == &b[0] {
		t.Fatal("body handed out again while in quarantine")
	}
	if !poisoned(b[:cap(b)]) {
		t.Fatalf("released body reads %x, want all poison", b[:cap(b)])
	}
	releaseBodies(&s, bodyQuarantine)
	if g := s.Body(200); &g[0] == &b[0] {
		t.Fatal("body handed out for a larger class")
	}
	if g := s.Body(65); &g[0] != &b[0] || len(g) != 65 {
		t.Fatal("body not handed out again for its class after the quarantine")
	}
}

func TestPutBodyIgnoresForeignSlices(t *testing.T) {
	var s FrameStore
	for _, b := range [][]byte{make([]byte, 96), make([]byte, 10, 100), make([]byte, 2*maxBody)} {
		s.PutBody(b)
		if b[0] != 0 {
			t.Fatalf("a slice of capacity %d was taken as a body", cap(b))
		}
	}
	releaseBodies(&s, bodyQuarantine+1)
	if s.held.Len() != bodyQuarantine || len(s.bodies[0]) != 1 {
		t.Fatalf("quarantine %d, class 0 %d: foreign slices entered the store", s.held.Len(), len(s.bodies[0]))
	}
}

func TestPutBodyTwicePanics(t *testing.T) {
	var s FrameStore
	b := s.Body(40)
	b[0] = 1
	s.PutBody(b)
	defer func() {
		if recover() == nil {
			t.Fatal("second release of a body did not panic")
		}
	}()
	s.PutBody(b)
}

func TestBodyWrittenAfterReleasePanics(t *testing.T) {
	var s FrameStore
	b := s.Body(40)
	b[0] = 1
	s.PutBody(b)
	b[39] = 0 // a late writer
	defer func() {
		if recover() == nil {
			t.Fatal("a body written after its release left the quarantine unnoticed")
		}
	}()
	releaseBodies(&s, bodyQuarantine)
}
