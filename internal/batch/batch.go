// Package batch implements Skeap's operation batches (Definition 3.1),
// the anchor's position-interval assignment (Phase 2, §3.2.2) and the
// interval decomposition performed on the way down the aggregation tree
// (Phase 3, §3.2.3). Everything here is pure data logic, exercised both by
// the protocol handlers and directly by unit and property tests.
//
// A batch of length k is a sequence (i₁,d₁,…,i_k,d_k) where i_j is a
// vector of insert counts per priority and d_j a delete count. Two batches
// combine entrywise; the shorter one is padded with zeros.
//
// Serialization order: the anchor induces the global order ≺ by processing
// the combined batch entry-major — within entry j, all inserts precede all
// deletes, and contributions are ordered own-node-first, then children in
// tree order (the same order used to combine). Each operation's global
// sequence value is communicated downward via per-entry base offsets. (The
// paper's §3.3 prose shifts *all* of a second sub-batch after the first,
// which contradicts the entrywise combination its own anchor performs and
// would break Lemma 3.4; the entry-major order implemented here is the one
// consistent with Phase 2, and the semantics checkers verify it satisfies
// Definitions 1.1 and 1.2.)
package batch

import (
	"fmt"

	"dpq/internal/mathx"
)

// Interval is a closed integer position interval [Lo, Hi]; it is empty
// when Hi < Lo.
type Interval struct{ Lo, Hi int64 }

// Empty reports whether the interval holds no positions.
func (iv Interval) Empty() bool { return iv.Hi < iv.Lo }

// Size returns the cardinality |[Lo,Hi]|.
func (iv Interval) Size() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

func (iv Interval) String() string {
	if iv.Empty() {
		return "∅"
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

// Piece is an interval of positions within one priority's queue; delete
// assignments are ordered lists of pieces possibly spanning priorities
// (§3.2.2: the anchor moves to the next non-empty priority when the most
// prioritized interval runs out).
type Piece struct {
	P  int // priority index, 0-based
	Iv Interval
	// Desc marks stack-mode pieces whose positions are consumed from Hi
	// down to Lo (newest first).
	Desc bool
}

// At returns the i-th position the piece hands out, 0 ≤ i < Iv.Size().
func (pc Piece) At(i int64) int64 {
	if pc.Desc {
		return pc.Iv.Hi - i
	}
	return pc.Iv.Lo + i
}

// Entry is one (i_j, d_j) pair of a batch.
type Entry struct {
	Ins []int64 // insert counts per priority, length |𝒫|
	Del int64   // DeleteMin count
}

// Total returns the number of operations in the entry.
func (e Entry) Total() int64 {
	t := e.Del
	for _, c := range e.Ins {
		t += c
	}
	return t
}

// Batch is a sequence of entries over a fixed priority universe size.
type Batch struct {
	P       int
	Entries []Entry
}

// New returns an empty batch over p priorities.
func New(p int) *Batch {
	if p < 1 {
		panic("batch: need at least one priority")
	}
	return &Batch{P: p}
}

// Len returns the number of entries.
func (b *Batch) Len() int { return len(b.Entries) }

// Ops returns the total number of operations represented.
func (b *Batch) Ops() int64 {
	var t int64
	for _, e := range b.Entries {
		t += e.Total()
	}
	return t
}

// AddInsert appends one insert of priority p (0-based) to the batch,
// respecting the local issue order: an insert after a delete opens a new
// entry (§3.1's snapshot example).
func (b *Batch) AddInsert(p int) {
	if p < 0 || p >= b.P {
		panic("batch: priority out of range")
	}
	n := len(b.Entries)
	if n == 0 || b.Entries[n-1].Del > 0 {
		b.Entries = append(b.Entries, Entry{Ins: make([]int64, b.P)})
		n++
	}
	b.Entries[n-1].Ins[p]++
}

// AddDelete appends one DeleteMin to the batch.
func (b *Batch) AddDelete() {
	n := len(b.Entries)
	if n == 0 {
		b.Entries = append(b.Entries, Entry{Ins: make([]int64, b.P)})
		n++
	}
	b.Entries[n-1].Del++
}

// Clone returns a deep copy.
func (b *Batch) Clone() *Batch {
	c := New(b.P)
	c.Entries = make([]Entry, len(b.Entries))
	for i, e := range b.Entries {
		c.Entries[i] = Entry{Ins: append([]int64(nil), e.Ins...), Del: e.Del}
	}
	return c
}

// Combine returns the entrywise combination of batches (Definition 3.1),
// padding shorter batches with zero entries. All batches must share the
// same priority universe.
func Combine(batches ...*Batch) *Batch {
	if len(batches) == 0 {
		panic("batch: combine of nothing")
	}
	p := batches[0].P
	maxLen := 0
	for _, b := range batches {
		if b.P != p {
			panic("batch: combining batches over different priority universes")
		}
		if b.Len() > maxLen {
			maxLen = b.Len()
		}
	}
	out := New(p)
	out.Entries = newEntries(maxLen, p)
	for _, b := range batches {
		for j, e := range b.Entries {
			for q, c := range e.Ins {
				out.Entries[j].Ins[q] += c
			}
			out.Entries[j].Del += e.Del
		}
	}
	return out
}

// newEntries returns n zero entries whose insert counts share one array,
// each cut to length and capacity p so no append reaches a neighbour.
func newEntries(n, p int) []Entry {
	es := make([]Entry, n)
	counts := make([]int64, n*p)
	for j := range es {
		es[j].Ins = counts[j*p : (j+1)*p : (j+1)*p]
	}
	return es
}

// Bits returns the encoded size of the batch: one O(log n)-bit count per
// (entry, priority) plus one per entry — the object of Lemma 3.8.
func (b *Batch) Bits() int {
	bits := 16 // length header
	for _, e := range b.Entries {
		for _, c := range e.Ins {
			bits += mathx.BitsFor(uint64(c)) + 1
		}
		bits += mathx.BitsFor(uint64(e.Del)) + 1
	}
	return bits
}
