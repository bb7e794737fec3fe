package sim

// Queue is an unbounded FIFO channel for processes in virtual time: Put
// never blocks, and Get blocks while the queue is empty.
type Queue[T any] struct {
	items    []T
	notEmpty Signal
}

// NewQueue returns an empty queue for the engine's processes.
func NewQueue[T any](*Engine) *Queue[T] { return &Queue[T]{} }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v and wakes the longest-waiting Get, if any. It never blocks
// and may be called from event context.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	q.notEmpty.Signal()
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for len(q.items) == 0 {
		q.notEmpty.Wait(p)
	}
	return q.pop()
}

// TryGet removes and returns the head item without blocking; ok reports
// whether an item was available. It may be called from event context.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	return q.pop(), true
}

func (q *Queue[T]) pop() T {
	v := q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	return v
}
