package fiber

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// sink records arriving items with their arrival times.
type sink struct {
	name  string
	items []*Item
	times []sim.Time
	eng   *sim.Engine
}

func (s *sink) Receive(it *Item) {
	s.items = append(s.items, it)
	s.times = append(s.times, s.eng.Now())
}
func (s *sink) EndpointName() string { return s.name }

func newPacket(n int) *Item {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)
	}
	return &Item{Kind: KindPacket, Payload: p}
}

func TestItemBytes(t *testing.T) {
	cmd := &Item{Kind: KindCommand}
	if cmd.Bytes() != 3 {
		t.Fatalf("command bytes = %d, want 3", cmd.Bytes())
	}
	rep := &Item{Kind: KindReply}
	if rep.Bytes() != 3 {
		t.Fatalf("reply bytes = %d, want 3", rep.Bytes())
	}
	pkt := newPacket(100)
	if pkt.Bytes() != 102 {
		t.Fatalf("packet bytes = %d, want 102 (100 + SOP/EOP)", pkt.Bytes())
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	e := sim.NewEngine()
	dst := &sink{name: "dst", eng: e}
	l := NewLink(e, "l", dst)
	// 1000-byte packet (1002 with framing) at 80 ns/byte: link busy for
	// 80160 ns; first byte arrives one propagation delay after t=0.
	e.At(0, func() { l.Send(newPacket(1000), 0) })
	e.Run()
	if len(dst.items) != 1 {
		t.Fatalf("got %d items", len(dst.items))
	}
	if dst.times[0] != DefaultPropagation {
		t.Fatalf("arrival (first byte) at %v, want %v", dst.times[0], DefaultPropagation)
	}
	if got, want := dst.items[0].End(), DefaultPropagation+1002*80; got != want {
		t.Fatalf("End() = %v, want %v", got, want)
	}
	if l.BusyUntil() != 1002*80 {
		t.Fatalf("BusyUntil = %v", l.BusyUntil())
	}
}

func TestLinkBackToBackItemsSerialize(t *testing.T) {
	e := sim.NewEngine()
	dst := &sink{name: "dst", eng: e}
	l := NewLink(e, "l", dst)
	e.At(0, func() {
		l.Send(&Item{Kind: KindCommand}, 0) // 3 bytes: 0..240
		l.Send(&Item{Kind: KindCommand}, 0) // must wait: 240..480
	})
	e.Run()
	if len(dst.items) != 2 {
		t.Fatalf("got %d items", len(dst.items))
	}
	if dst.times[0] != DefaultPropagation || dst.times[1] != 240+DefaultPropagation {
		t.Fatalf("arrivals %v, want [%v %v]", dst.times, DefaultPropagation, 240+DefaultPropagation)
	}
}

func TestLinkEarliestRespected(t *testing.T) {
	e := sim.NewEngine()
	dst := &sink{name: "dst", eng: e}
	l := NewLink(e, "l", dst)
	e.At(0, func() { l.Send(&Item{Kind: KindCommand}, 1000) })
	e.Run()
	if dst.times[0] != 1000+DefaultPropagation {
		t.Fatalf("arrival %v, want %v", dst.times[0], 1000+DefaultPropagation)
	}
}

func TestLinkInOrderDelivery(t *testing.T) {
	e := sim.NewEngine()
	dst := &sink{name: "dst", eng: e}
	l := NewLink(e, "l", dst)
	e.At(0, func() {
		for i := 0; i < 20; i++ {
			l.Send(newPacket(i+1), 0)
		}
	})
	e.Run()
	if len(dst.items) != 20 {
		t.Fatalf("got %d items", len(dst.items))
	}
	for i, it := range dst.items {
		if len(it.Payload) != i+1 {
			t.Fatalf("item %d has payload %d, out of order", i, len(it.Payload))
		}
		if i > 0 && dst.times[i] < dst.times[i-1] {
			t.Fatalf("arrival times out of order: %v", dst.times)
		}
	}
}

func TestLinkBandwidthIs100Mbps(t *testing.T) {
	e := sim.NewEngine()
	dst := &sink{name: "dst", eng: e}
	l := NewLink(e, "l", dst)
	const n = 100
	e.At(0, func() {
		for i := 0; i < n; i++ {
			l.Send(newPacket(1000), 0)
		}
	})
	e.Run()
	last := dst.items[n-1].End()
	rate := float64(l.BytesSent()) * 8 / last.Seconds() / 1e6
	if rate < 99 || rate > 101 {
		t.Fatalf("link rate = %.1f Mb/s, want ~100", rate)
	}
}

func TestErrorInjectionDisabledByDefault(t *testing.T) {
	e := sim.NewEngine()
	dst := &sink{name: "dst", eng: e}
	l := NewLink(e, "l", dst)
	e.At(0, func() {
		for i := 0; i < 50; i++ {
			l.Send(newPacket(100), 0)
		}
	})
	e.Run()
	for _, it := range dst.items {
		if it.FrameError || it.Corrupt {
			t.Fatal("error injected with no error model")
		}
	}
}

func TestErrorInjection(t *testing.T) {
	e := sim.NewEngine()
	dst := &sink{name: "dst", eng: e}
	l := NewLink(e, "l", dst)
	l.SetErrorModel(ErrorModel{BitErrorRate: 1e-3, Seed: 42}) // ~1 damage per 1000-byte packet
	orig := newPacket(1000)
	origCopy := make([]byte, len(orig.Payload))
	copy(origCopy, orig.Payload)
	e.At(0, func() {
		l.Send(orig, 0)
		for i := 0; i < 99; i++ {
			l.Send(newPacket(1000), 0)
		}
	})
	e.Run()
	var frame, corrupt int
	for _, it := range dst.items {
		if it.FrameError {
			frame++
		}
		if it.Corrupt {
			corrupt++
			if bytes.Equal(it.Payload, origCopy) && it == dst.items[0] {
				t.Fatal("corrupt item has unmodified payload")
			}
		}
	}
	if frame+corrupt == 0 {
		t.Fatal("no errors injected at BER 1e-3 over 100 KB")
	}
	if int64(frame+corrupt) != l.ErrorsInjected() {
		t.Fatalf("ErrorsInjected = %d, observed %d", l.ErrorsInjected(), frame+corrupt)
	}
	// Sender's buffer must never be mutated.
	if !bytes.Equal(orig.Payload, origCopy) && !orig.Corrupt {
		t.Fatal("sender buffer mutated")
	}
	for i := range origCopy {
		if origCopy[i] != byte(i) {
			t.Fatal("original slice content changed")
		}
	}
}

func TestErrorInjectionDeterministic(t *testing.T) {
	run := func() (int64, int64) {
		e := sim.NewEngine()
		dst := &sink{name: "dst", eng: e}
		l := NewLink(e, "l", dst)
		l.SetErrorModel(ErrorModel{BitErrorRate: 1e-4, Seed: 7})
		e.At(0, func() {
			for i := 0; i < 200; i++ {
				l.Send(newPacket(500), 0)
			}
		})
		e.Run()
		return l.ErrorsInjected(), l.BytesSent()
	}
	e1, b1 := run()
	e2, b2 := run()
	if e1 != e2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", e1, b1, e2, b2)
	}
}

func TestCommandString(t *testing.T) {
	c := Command{Op: 1, Hub: 2, Param: 3}
	if c.String() == "" {
		t.Fatal("empty command string")
	}
	for _, k := range []ItemKind{KindCommand, KindPacket, KindReply, ItemKind(9)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if (&Item{Kind: KindPacket}).String() == "" || (&Item{Kind: KindReply}).String() == "" {
		t.Fatal("empty item string")
	}
}

// Property: for any sequence of item sizes, arrival order equals send order
// and inter-arrival spacing is at least the serialization time of the
// preceding item.
func TestLinkSpacingProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 50 {
			sizes = sizes[:50]
		}
		e := sim.NewEngine()
		dst := &sink{name: "dst", eng: e}
		l := NewLink(e, "l", dst)
		e.At(0, func() {
			for _, n := range sizes {
				l.Send(newPacket(int(n)), 0)
			}
		})
		e.Run()
		if len(dst.items) != len(sizes) {
			return false
		}
		for i := 1; i < len(dst.items); i++ {
			minGap := sim.Time(dst.items[i-1].Bytes()) * ByteTime
			if dst.times[i]-dst.times[i-1] < minGap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Sends interleaved with deliveries keep a changing number of items on the
// wire; every item must arrive once, in send order, at the time Send
// stamped on it.
func TestLinkInFlightInterleaved(t *testing.T) {
	e := sim.NewEngine()
	dst := &sink{name: "dst", eng: e}
	l := NewLink(e, "l", dst)
	var sent []*Item
	var due []sim.Time
	for i := 0; i < 60; i++ {
		// Bursts of 1 to 7 items every 700 ns.
		e.At(sim.Time(i)*700, func() {
			for k := 0; k <= i%7; k++ {
				it := newPacket(1 + (i*7+k)%40)
				l.Send(it, 0)
				sent = append(sent, it)
				due = append(due, it.Start)
			}
		})
	}
	e.Run()
	if len(dst.items) != len(sent) {
		t.Fatalf("delivered %d items, sent %d", len(dst.items), len(sent))
	}
	for i := range sent {
		if dst.items[i] != sent[i] || dst.times[i] != due[i] {
			t.Fatalf("delivery %d: item %p at %v, want %p at %v", i, dst.items[i], dst.times[i], sent[i], due[i])
		}
	}
}

// A packet sent into a dark fiber returns its credit to the sender in the
// send's own event; commands and replies carry no credit.
func TestDarkFiberReturnsCredit(t *testing.T) {
	e := sim.NewEngine()
	dst := &sink{name: "dst", eng: e}
	l := NewLink(e, "l", dst)
	credits := 0
	var at sim.Time
	l.SetCreditReturn(func() { credits++; at = e.Now() })
	l.SetDown(true)
	e.At(500, func() {
		l.Send(&Item{Kind: KindCommand}, 0)
		l.Send(&Item{Kind: KindReply}, 0)
		if credits != 0 {
			t.Errorf("commands and replies returned %d credits, want 0", credits)
		}
		l.Send(newPacket(64), 0)
		l.Send(newPacket(64), 0)
	})
	e.Run()
	if credits != 2 || at != 500 {
		t.Fatalf("2 lost packets returned %d credits, the last at %v; want 2 at 500", credits, at)
	}
	if len(dst.items) != 0 || l.Drops() != 4 {
		t.Fatalf("dark fiber delivered %d items and dropped %d, want 0 and 4", len(dst.items), l.Drops())
	}
}
