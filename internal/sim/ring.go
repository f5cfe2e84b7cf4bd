package sim

// ring is a growable FIFO over a power-of-two circular buffer with
// indexed access from the front. The reliable transport uses one per
// destination for its unacked payloads (index = seq − base) and one for
// the first-timeout schedule; unlike append-and-reslice queues it reuses
// its storage, so a long-lived link allocates only while its in-flight
// window is still growing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued items.
func (r *ring[T]) Len() int { return r.n }

// At returns the i-th item from the front (0 ≤ i < Len). The pointer is
// valid until the next Push.
func (r *ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// Push appends x at the back.
func (r *ring[T]) Push(x T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(8, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

// PopFront drops the front item, zeroing its slot for the GC.
func (r *ring[T]) PopFront() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}
