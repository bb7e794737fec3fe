package fiber

// Frame is the items of one packet-switched frame in a single allocation,
// taken from a FrameStore. Each item is still a struct of its own, which
// links and ports update as it moves. The sender marks the items whose
// consumption ends the frame's life (Track); once every tracked item has
// been consumed, the items are cleared and the frame goes back to its store
// for the next frame of the same length — as the paper's CAB reuses the
// memory a packet's commands and body were built in (§6.2.1). A frame with a
// tracked item that is never consumed (lost on the way) is never reused and
// is left to the garbage collector.
type Frame struct {
	Items []Item

	store *FrameStore
	live  int // tracked items not yet consumed
}

// Track marks item i as one the frame waits for: the frame is released once
// every tracked item has been consumed.
func (f *Frame) Track(i int) {
	f.Items[i].frame = f
	f.live++
}

// Consume records that the item's receiver is done with it. Consuming the
// last outstanding tracked item of a frame releases the frame: its items
// are cleared, so a released item reads as zero, and the frame goes back to
// its store. Consuming an untracked item (a Clone among them) does nothing.
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
	f.store.put(f)
}

// FrameStore keeps released frames for reuse, by length. One store serves
// a whole system, so it holds at most the system's peak number of frames in
// flight. The zero value is ready to use.
type FrameStore struct {
	free [][]*Frame // free[n]: released frames of n items
	made int
}

// Get returns a frame of n zero items: a released one of that length if
// there is one, else a new one.
func (s *FrameStore) Get(n int) *Frame {
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

// put keeps a released frame for the next Get of its length.
func (s *FrameStore) put(f *Frame) {
	n := len(f.Items)
	for len(s.free) <= n {
		s.free = append(s.free, nil)
	}
	s.free[n] = append(s.free[n], f)
}
