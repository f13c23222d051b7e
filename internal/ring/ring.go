// Package ring provides Deque, a growable ring-buffer double-ended queue
// of values. It backs the FIFOs on the kernel path (GPU admission queues,
// stream backlogs, worker-thread local queues) and the serving jobs'
// request-arrival queues: once the buffer has grown to the peak depth,
// pushes and pops at either end allocate nothing, where reslicing a Go
// slice (q = q[1:]) or prepending to it regrows the backing array again
// and again, and keeps every element ever queued reachable.
//
// Vacated slots are zeroed. For element types that hold pointers (worker
// tasks name their owner) that keeps the buffer from pinning what former
// elements referenced; for pointer-free types (kernel records, arrival
// times) the zeroing is a plain store and the garbage collector never
// scans the buffer.
package ring

// minCap is the first buffer size a push allocates.
const minCap = 8

// Deque is a double-ended queue of T values. The zero value is an empty
// deque ready to use. Slots vacated by pops, Clear and Retain are zeroed,
// so the buffer never pins memory its former elements referenced.
type Deque[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the front element in buf
	n    int // number of elements
}

// Len returns the number of elements.
func (d *Deque[T]) Len() int { return d.n }

// At returns a pointer to the i-th element from the front. The pointer is
// valid until the next push, pop or Retain.
func (d *Deque[T]) At(i int) *T {
	if i < 0 || i >= d.n {
		panic("ring: index out of range")
	}
	return &d.buf[(d.head+i)&(len(d.buf)-1)]
}

// PushBack appends v at the back.
func (d *Deque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// PushFront inserts v at the front.
func (d *Deque[T]) PushFront(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// PopFront removes and returns the front element. It panics when empty.
func (d *Deque[T]) PopFront() T {
	if d.n == 0 {
		panic("ring: PopFront on empty deque")
	}
	var zero T
	v := d.buf[d.head]
	d.buf[d.head] = zero
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v
}

// PopBack removes and returns the back element. It panics when empty.
func (d *Deque[T]) PopBack() T {
	if d.n == 0 {
		panic("ring: PopBack on empty deque")
	}
	var zero T
	i := (d.head + d.n - 1) & (len(d.buf) - 1)
	v := d.buf[i]
	d.buf[i] = zero
	d.n--
	return v
}

// Clear removes every element, keeping the buffer for reuse.
func (d *Deque[T]) Clear() {
	var zero T
	for i := 0; i < d.n; i++ {
		d.buf[(d.head+i)&(len(d.buf)-1)] = zero
	}
	d.head, d.n = 0, 0
}

// Retain keeps the elements for which keep returns true, in order, and
// returns how many it removed.
func (d *Deque[T]) Retain(keep func(*T) bool) int {
	kept := 0
	for i := 0; i < d.n; i++ {
		if v := d.At(i); keep(v) {
			if kept != i {
				*d.At(kept) = *v
			}
			kept++
		}
	}
	removed := d.n - kept
	var zero T
	for i := kept; i < d.n; i++ {
		*d.At(i) = zero
	}
	d.n = kept
	return removed
}

// grow doubles the buffer, moving the elements to its start in order.
func (d *Deque[T]) grow() {
	size := 2 * len(d.buf)
	if size == 0 {
		size = minCap
	}
	buf := make([]T, size)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf, d.head = buf, 0
}
