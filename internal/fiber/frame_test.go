package fiber

import (
	"reflect"
	"testing"
)

// trackedFrame returns a frame of n items from s, carrying a 3-byte body
// from s, whose last two items are tracked, as a packet-switched frame's
// packet and close all are.
func trackedFrame(s *FrameStore, n int) *Frame {
	f := s.Get(n)
	f.Body = s.Body(3)
	copy(f.Body, []byte{1, 2, 3})
	f.Items[n-2] = Item{Kind: KindPacket, Payload: f.Body}
	f.Items[n-1] = Item{Kind: KindCommand, Cmd: Command{Op: 1, Hub: 0xFF}}
	f.Track(n - 2)
	f.Track(n - 1)
	return f
}

// bodyBack reports whether the store has body b back for reuse: in the
// production order the next Body of its class is b itself, and with the
// quarantine b is all poison.
func bodyBack(s *FrameStore, b []byte, quarantine bool) bool {
	if quarantine {
		return poisoned(b[:cap(b)])
	}
	g := s.Body(len(b))
	defer s.PutBody(g)
	return &g[:1][0] == &b[:1][0]
}

func TestFrameReusedOnlyAfterEveryTrackedItem(t *testing.T) {
	inBothOrders(t, func(t *testing.T, quarantine bool) {
		var s FrameStore
		f := trackedFrame(&s, 3)
		body := f.Body
		f.Items[1].Consume()
		if g := s.Get(3); g == f || bodyBack(&s, body, quarantine) {
			t.Fatal("frame or body handed out again with a tracked item outstanding")
		}
		f.Items[2].Consume()
		if !bodyBack(&s, body, quarantine) {
			t.Fatal("body not back after every tracked item was consumed")
		}
		if g := s.Get(3); g != f {
			t.Fatal("frame not handed out again after every tracked item was consumed")
		}
		if s.Made() != 2 {
			t.Fatalf("Made() = %d, want 2", s.Made())
		}
	})
}

func TestConsumeUntrackedOrCloneChangesNothing(t *testing.T) {
	inBothOrders(t, func(t *testing.T, quarantine bool) {
		var s FrameStore
		f := trackedFrame(&s, 3)
		(&Item{Kind: KindPacket}).Consume() // never framed
		f.Items[0].Consume()                // framed but untracked
		f.Items[0].Clone().Consume()        // a copy of an untracked item
		f.Items[2].Consume()
		f.Items[2].Consume() // a second consumption of the same item
		if f.Items[1].Payload == nil || f.Body == nil {
			t.Fatal("items cleared with the packet outstanding")
		}
		if g := s.Get(3); g == f {
			t.Fatal("frame released with the packet outstanding")
		}
		f.Items[1].Consume()
		if g := s.Get(3); g != f {
			t.Fatal("frame not released by its own packet")
		}
	})
}

// TestCloneTracksItsCopy is the HUB fan-out: every copy of a tracked packet
// holds the frame, and its body, until it too is consumed, whichever copy
// is consumed last. A copy of a copy counts as well.
func TestCloneTracksItsCopy(t *testing.T) {
	inBothOrders(t, func(t *testing.T, quarantine bool) {
		for last := range 3 {
			var s FrameStore
			f := trackedFrame(&s, 3)
			body := f.Body
			c := f.Items[1].Clone()
			copies := []*Item{&f.Items[1], c, c.Clone()}
			f.Items[2].Consume()
			for i, it := range copies {
				if i != last {
					it.Consume()
				}
			}
			if g := s.Get(3); g == f || bodyBack(&s, body, quarantine) {
				t.Fatalf("copy %d outstanding: the frame or its body went back", last)
			}
			if got := copies[last].Payload; got[0] != 1 || got[2] != 3 {
				t.Fatalf("copy %d outstanding reads %x", last, got)
			}
			copies[last].Consume()
			if !bodyBack(&s, body, quarantine) {
				t.Fatalf("body not back after copy %d, the last, was consumed", last)
			}
			if g := s.Get(3); g != f {
				t.Fatalf("frame not back after copy %d, the last, was consumed", last)
			}
		}
	})
}

func TestReleasedFrameReadsZero(t *testing.T) {
	inBothOrders(t, func(t *testing.T, _ bool) {
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
		if f.Body != nil {
			t.Fatal("released frame still carries its body")
		}
	})
}

func TestGetReusesOnlyTheRequestedLength(t *testing.T) {
	inBothOrders(t, func(t *testing.T, _ bool) {
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
	})
}

func TestStoreCountsWhatIsOut(t *testing.T) {
	inBothOrders(t, func(t *testing.T, _ bool) {
		var s FrameStore
		f := trackedFrame(&s, 3)
		big := s.Body(maxBody + 1) // a plain allocation, not the store's
		kept := s.Body(100)
		c := f.Items[1].Clone()
		if fr, b := s.Out(); fr != 1 || b != 2 {
			t.Fatalf("out: %d frames, %d bodies; want 1 and 2", fr, b)
		}
		f.Items[1].Consume()
		f.Items[2].Consume()
		c.Consume()
		s.PutBody(big)
		if fr, b := s.Out(); fr != 0 || b != 1 {
			t.Fatalf("out after release: %d frames, %d bodies; want 0 and 1 (the kept body)", fr, b)
		}
		s.PutBody(kept)
		if fr, b := s.Out(); fr != 0 || b != 0 {
			t.Fatalf("out at the end: %d frames, %d bodies; want none", fr, b)
		}
	})
}

func TestBodyClasses(t *testing.T) {
	var s FrameStore
	for _, tc := range []struct{ n, cap int }{
		{0, 32}, {1, 32}, {32, 32}, {33, 64}, {64, 64}, {65, 128}, {96, 128}, {512, 512}, {513, 1024},
		{1022, maxBody}, {maxBody, maxBody}, {maxBody + 1, maxBody + 1}, {4000, 4000},
	} {
		if b := s.Body(tc.n); len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("Body(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.cap)
		}
	}
	for n := 0; n <= maxBody+1; n++ {
		want := -1
		if n <= maxBody {
			for want = 0; 1<<(minBodyShift+want) < n; want++ {
			}
		}
		if got := bodyClass(n); got != want {
			t.Fatalf("bodyClass(%d) = %d, want %d", n, got, want)
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

// TestBodyReusedLastInFirstOut is the production order: with no quarantine
// a released body is the next one of its class handed out, and of no other.
// The quarantine holds both back.
func TestBodyReusedLastInFirstOut(t *testing.T) {
	inBothOrders(t, func(t *testing.T, quarantine bool) {
		var s FrameStore
		a, b := s.Body(100), s.Body(100)
		s.PutBody(a)
		s.PutBody(b)
		if g := s.Body(200); &g[0] == &a[0] || &g[0] == &b[0] {
			t.Fatal("body handed out for a larger class")
		}
		g, h := s.Body(65), s.Body(128)
		if quarantine {
			if &g[0] == &b[0] || &g[0] == &a[0] || &h[0] == &a[0] || &h[0] == &b[0] {
				t.Fatal("body handed out again while in quarantine")
			}
			return
		}
		if &g[0] != &b[0] || len(g) != 65 || &h[0] != &a[0] || len(h) != 128 {
			t.Fatal("released bodies not handed out last in, first out")
		}
	})
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
