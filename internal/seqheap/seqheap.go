// Package seqheap implements a classical sequential binary min-heap over
// prio.Element. It serves two purposes in the reproduction:
//
//   - as the *oracle*: the semantics checkers replay a serialization order
//     ≺ against this heap to verify heap consistency (Definition 1.2), and
//   - as the state carried by the centralized-coordinator baseline of
//     experiment E15 (internal/harness), the comparator implied by the
//     paper's scalability discussion (§1, §1.3).
package seqheap

import "dpq/internal/prio"

// Heap is a binary min-heap on the total element order (priority, then
// element ID). The zero value is an empty heap ready to use.
type Heap struct {
	a []prio.Element
}

// New returns an empty heap with capacity hint cap.
func New(cap int) *Heap { return &Heap{a: make([]prio.Element, 0, cap)} }

// Len returns the number of elements in the heap.
func (h *Heap) Len() int { return len(h.a) }

// Insert adds e to the heap.
func (h *Heap) Insert(e prio.Element) {
	h.a = append(h.a, e)
	h.up(len(h.a) - 1)
}

// Min returns the minimum element without removing it; ok is false when the
// heap is empty.
func (h *Heap) Min() (e prio.Element, ok bool) {
	if len(h.a) == 0 {
		return prio.Element{}, false
	}
	return h.a[0], true
}

// DeleteMin removes and returns the minimum element; ok is false when the
// heap is empty (the paper's ⊥ return).
func (h *Heap) DeleteMin() (e prio.Element, ok bool) {
	if len(h.a) == 0 {
		return prio.Element{}, false
	}
	min := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	if last > 0 {
		h.down(0)
	}
	return min, true
}

// Elements returns a copy of the heap contents in arbitrary order.
func (h *Heap) Elements() []prio.Element {
	return append([]prio.Element(nil), h.a...)
}

func (h *Heap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.a[i].Less(h.a[p]) {
			return
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *Heap) down(i int) {
	n := len(h.a)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.a[l].Less(h.a[small]) {
			small = l
		}
		if r < n && h.a[r].Less(h.a[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
}

// Valid reports whether the internal array satisfies the heap invariant.
// It exists for property-based tests.
func (h *Heap) Valid() bool {
	for i := 1; i < len(h.a); i++ {
		if h.a[i].Less(h.a[(i-1)/2]) {
			return false
		}
	}
	return true
}
