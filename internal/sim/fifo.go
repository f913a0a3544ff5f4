package sim

// FIFO is a first-in first-out queue on a ring that doubles when full, so
// pushing and popping allocate nothing once it has grown. The zero value
// is an empty queue.
type FIFO[T any] struct {
	// ring holds the queued values oldest first, from head; its length is
	// zero or a power of two.
	ring  []T
	head  int
	count int
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return q.count }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if q.count == len(q.ring) {
		grown := make([]T, max(16, 2*len(q.ring)))
		n := copy(grown, q.ring[q.head:])
		copy(grown[n:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.count)&(len(q.ring)-1)] = v
	q.count++
}

// Pop removes and returns the oldest value; the queue must be non-empty.
func (q *FIFO[T]) Pop() T {
	v := q.ring[q.head]
	var zero T
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.count--
	return v
}

// front returns the oldest value in place; the queue must be non-empty.
func (q *FIFO[T]) front() *T { return &q.ring[q.head] }

// Back returns the newest value in place, valid until the next Push or
// Pop; the queue must be non-empty.
func (q *FIFO[T]) Back() *T { return &q.ring[(q.head+q.count-1)&(len(q.ring)-1)] }
