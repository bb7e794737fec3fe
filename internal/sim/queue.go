package sim

// FIFO is a first-in first-out buffer that does not slide: its items live
// in a ring that grows, by doubling, only when it is full, so a FIFO that
// settles at some depth stops allocating. Pop clears the slot it empties,
// so the ring keeps nothing reachable that it no longer holds. The zero
// FIFO is empty and ready to use.
type FIFO[T any] struct {
	buf  []T
	head int32 // slot of the oldest item
	n    int32 // items held
}

// Len returns the number of items held.
func (f *FIFO[T]) Len() int { return int(f.n) }

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	if int(f.n) == len(f.buf) {
		f.grow()
	}
	i := int(f.head + f.n)
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	f.buf[i] = v
	f.n++
}

// PushFront puts v ahead of every item held, so the next Pop returns it.
func (f *FIFO[T]) PushFront(v T) {
	if int(f.n) == len(f.buf) {
		f.grow()
	}
	if f.head == 0 {
		f.head = int32(len(f.buf))
	}
	f.head--
	f.buf[f.head] = v
	f.n++
}

// Peek returns the oldest item without removing it. The FIFO must not be
// empty.
func (f *FIFO[T]) Peek() T {
	if f.n == 0 {
		panic("sim: Peek on an empty FIFO")
	}
	return f.buf[f.head]
}

// Pop removes and returns the oldest item. The FIFO must not be empty.
func (f *FIFO[T]) Pop() T {
	v := f.Peek()
	var zero T
	f.buf[f.head] = zero
	f.head++
	if int(f.head) == len(f.buf) {
		f.head = 0
	}
	f.n--
	return v
}

// Clear drops every item and keeps the ring for reuse.
func (f *FIFO[T]) Clear() {
	clear(f.buf)
	f.head, f.n = 0, 0
}

// grow doubles the ring, moving the items to its front in order. It starts
// at one slot: most of a system's queues never hold more than a couple of
// items, and a 1024-CAB system has thousands of them, which is also why
// the indices are 32-bit.
func (f *FIFO[T]) grow() {
	buf := make([]T, max(1, 2*len(f.buf)))
	n := copy(buf, f.buf[f.head:])
	copy(buf[n:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

// Queue is an unbounded FIFO channel for processes in virtual time: Put
// never blocks, and Get blocks while the queue is empty.
type Queue[T any] struct {
	items    FIFO[T]
	notEmpty Signal
}

// NewQueue returns an empty queue for the engine's processes.
func NewQueue[T any](*Engine) *Queue[T] { return &Queue[T]{} }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Put appends v and wakes the longest-waiting Get, if any. It never blocks
// and may be called from event context.
func (q *Queue[T]) Put(v T) {
	q.items.Push(v)
	q.notEmpty.Signal()
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.Len() == 0 {
		q.notEmpty.Wait(p)
	}
	return q.items.Pop()
}

// TryGet removes and returns the head item without blocking; ok reports
// whether an item was available. It may be called from event context.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.Len() == 0 {
		return v, false
	}
	return q.items.Pop(), true
}
