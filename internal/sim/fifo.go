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
func (q *FIFO[T]) Push(v T) { *q.Append() = v }

// Append appends the zero value and returns it in place, valid until the
// next Push, Append, Pop or Drop. A caller that fills a large value field
// by field writes it straight into the ring, with no temporary to copy.
func (q *FIFO[T]) Append() *T {
	if q.count == len(q.ring) {
		grown := make([]T, max(16, 2*len(q.ring)))
		n := copy(grown, q.ring[q.head:])
		copy(grown[n:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	v := &q.ring[(q.head+q.count)&(len(q.ring)-1)]
	q.count++
	return v
}

// Pop removes and returns the oldest value; the queue must be non-empty.
func (q *FIFO[T]) Pop() T {
	v := q.ring[q.head]
	q.Drop()
	return v
}

// Drop removes the oldest value; the queue must be non-empty. A caller
// that copies a large value out of Front and then drops it copies it
// once, where Pop's result would be one more copy.
func (q *FIFO[T]) Drop() {
	var zero T
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.count--
}

// Front returns the oldest value in place, valid until the next Push,
// Append, Pop or Drop; the queue must be non-empty.
func (q *FIFO[T]) Front() *T { return &q.ring[q.head] }

// Back returns the newest value in place, valid until the next Push,
// Append, Pop or Drop; the queue must be non-empty.
func (q *FIFO[T]) Back() *T { return &q.ring[(q.head+q.count-1)&(len(q.ring)-1)] }
