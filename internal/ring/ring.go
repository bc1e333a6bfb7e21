// Package ring provides a minimal FIFO queue with O(1) push and pop, for
// queues whose elements are not bios: the device's request queues and the
// memory model's writeback and swap-out queues. Popping must not shift the
// remaining elements. Bio backlogs queue on the intrusive bio.List instead,
// which allocates nothing per bio.
package ring

// Queue is a FIFO backed by a power-of-two circular buffer, so Push and Pop
// are branch-light index arithmetic with no periodic compaction. The zero
// value is ready to use.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of queued elements
}

// grow doubles the buffer (seeding at 8), unwrapping the live elements to
// the front so head arithmetic stays a simple mask.
func (q *Queue[T]) grow() {
	c := len(q.buf) * 2
	if c == 0 {
		c = 8
	}
	nb := make([]T, c)
	m := copy(nb, q.buf[q.head:])
	copy(nb[m:], q.buf[:q.head])
	q.buf = nb
	q.head = 0
}

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element; ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release references
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}

// Peek returns the oldest element without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// PeekTail returns a pointer to the newest element, or nil when empty. The
// pointer is invalidated by the next Push or Pop.
func (q *Queue[T]) PeekTail() *T {
	if q.n == 0 {
		return nil
	}
	return &q.buf[(q.head+q.n-1)&(len(q.buf)-1)]
}

// At returns a pointer to the i-th oldest element (0 = head). The pointer
// is invalidated by the next Push or Pop. It panics when out of range.
func (q *Queue[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("ring: index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Empty reports whether the queue has no elements.
func (q *Queue[T]) Empty() bool { return q.n == 0 }
