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
