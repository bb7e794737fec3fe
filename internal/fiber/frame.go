package fiber

import (
	"math/bits"
	"testing"

	"repro/internal/sim"
)

// Frame is the items of one packet-switched frame in a single allocation,
// taken from a FrameStore, and the body they carry. Each item is still a
// struct of its own, which links and ports update as it moves. The sender
// marks the items whose consumption ends the frame's life (Track), and a
// HUB's copy of a tracked item is tracked too (Clone); once all have been
// consumed, the items are cleared and the frame and its body go back to the
// store — as the paper's CAB reuses the memory a packet's commands and body
// were built in (§6.2.1). A frame with a tracked item that is never consumed
// (lost on the way) is left to the garbage collector, body and all.
type Frame struct {
	Items []Item
	Body  []byte // the packet body, from the store (nil: none)

	store *FrameStore
	live  int // tracked items and copies not yet consumed
}

// Track marks item i as one the frame waits for: the frame is released once
// every tracked item has been consumed.
func (f *Frame) Track(i int) {
	f.Items[i].frame = f
	f.live++
}

// Consume records that the item's receiver is done with it. Consuming the
// last outstanding tracked item or copy of a frame releases the frame: its
// items are cleared, so a released item reads as zero, and the frame and its
// body go back to the store. Consuming an untracked item does nothing.
func (it *Item) Consume() {
	f := it.frame
	if f == nil {
		return
	}
	it.frame = nil
	if f.live--; f.live > 0 {
		return
	}
	clear(f.Items)
	f.store.PutBody(f.Body)
	f.Body = nil
	f.store.put(f)
}

// FrameStore keeps released frames for reuse, by length, and released
// packet bodies, by size class. One store serves a whole system, so it holds
// at most the system's peak number of frames and bodies in flight. The zero
// value is ready to use.
type FrameStore struct {
	free [][]*Frame // free[n]: released frames of n items
	made int

	framesOut, bodiesOut int // taken and not given back

	bodies [bodyClasses][][]byte // bodies[c]: released bodies of class c
	held   sim.FIFO[[]byte]      // test binaries: released bodies not yet reusable
}

// Get returns a frame of n zero items: a released one of that length if
// there is one, else a new one.
func (s *FrameStore) Get(n int) *Frame {
	s.framesOut++
	if n < len(s.free) {
		if fs := s.free[n]; len(fs) > 0 {
			f := fs[len(fs)-1]
			fs[len(fs)-1] = nil
			s.free[n] = fs[:len(fs)-1]
			return f
		}
	}
	s.made++
	return &Frame{Items: make([]Item, n), store: s}
}

// Made returns the number of frames Get had to allocate because no
// released frame of the requested length was free.
func (s *FrameStore) Made() int { return s.made }

// Out returns the frames and the bodies taken and not given back. A body
// larger than maxBody is a plain allocation and is not counted.
func (s *FrameStore) Out() (frames, bodies int) { return s.framesOut, s.bodiesOut }

// put keeps a released frame for the next Get of its length.
func (s *FrameStore) put(f *Frame) {
	s.framesOut--
	n := len(f.Items)
	for len(s.free) <= n {
		s.free = append(s.free, nil)
	}
	s.free[n] = append(s.free[n], f)
}

// Packet bodies come in power-of-two size classes from 32 bytes to maxBody.
// The largest packet-switched payload (1022 bytes) fits the largest class.
const (
	minBodyShift = 5 // the smallest class holds 32 bytes
	bodyClasses  = 6
	// maxBody is the largest body a class holds. Body makes a larger one
	// as a plain allocation, which PutBody ignores.
	maxBody = 1 << (minBodyShift + bodyClasses - 1)
)

// bodyClass returns the class of the smallest body that holds n bytes, or
// -1 when n exceeds maxBody.
func bodyClass(n int) int {
	if n > maxBody {
		return -1
	}
	return bits.Len(uint(max(n, 1)-1) >> minBodyShift)
}

// Body returns a buffer of n bytes whose contents are undefined: a released
// body of n's class if there is one, else a new one of the class's
// capacity. The caller writes every byte it sends. As the paper's CAB
// builds each packet in CAB memory it reuses (§6.2.1), a body has one
// holder, the layer that took it, which gives it back with PutBody once it
// is done with it; another layer that needs the bytes copies them.
func (s *FrameStore) Body(n int) []byte {
	c := bodyClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	s.bodiesOut++
	if bs := s.bodies[c]; len(bs) > 0 {
		b := bs[len(bs)-1]
		bs[len(bs)-1] = nil
		s.bodies[c] = bs[:len(bs)-1]
		if checkBodies {
			// Unwritten poison past n would read as a second release.
			clear(b[n:])
		}
		return b[:n]
	}
	return make([]byte, n, 1<<(minBodyShift+c))
}

// PutBody takes a body back for reuse by the next Body of its class. A
// slice whose capacity is not exactly a class size was not made by Body
// and is left to the garbage collector. The caller must hold the only
// reference to b.
//
// In a test binary a released body is checked the way the CAB's protection
// hardware checks memory (§5.2): it is filled with poison and held in a
// FIFO quarantine of bodyQuarantine bodies before it can be reused.
// PutBody panics when a body is released twice (it is already all poison)
// or was written after its release (it leaves the quarantine changed).
func (s *FrameStore) PutBody(b []byte) {
	c := bodyClass(cap(b))
	if c < 0 || cap(b) != 1<<(minBodyShift+c) {
		return
	}
	s.bodiesOut--
	b = b[:cap(b)]
	if checkBodies {
		if b = s.quarantine(b); b == nil {
			return
		}
		c = bodyClass(len(b)) // the body leaving the quarantine may differ
	}
	s.bodies[c] = append(s.bodies[c], b)
}

// checkBodies arms PutBody's poison and quarantine in test binaries only.
var checkBodies = testing.Testing()

const (
	// No wire is all bodyPoison (its first byte is the protocol); other
	// data is all poison only if it fills its class with nothing else.
	bodyPoison     = 0xDB
	bodyQuarantine = 64
)

// quarantine poisons a released body and parks it, and returns the body
// that leaves the quarantine to make room (nil while it fills).
func (s *FrameStore) quarantine(b []byte) []byte {
	if poisoned(b) {
		panic("fiber: packet body released twice")
	}
	for i := range b {
		b[i] = bodyPoison
	}
	s.held.Push(b)
	if s.held.Len() <= bodyQuarantine {
		return nil
	}
	old := s.held.Pop()
	if !poisoned(old) {
		panic("fiber: packet body written after its release")
	}
	return old
}

// poisoned reports whether every byte of b is the poison byte.
func poisoned(b []byte) bool {
	for _, x := range b {
		if x != bodyPoison {
			return false
		}
	}
	return true
}
