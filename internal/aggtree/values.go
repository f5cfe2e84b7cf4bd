package aggtree

import (
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/prio"
)

// Scalar aggregate values shared by the protocols. Bit accounting follows
// Lemma 3.8 / Lemma 5.5: an integer in O(poly(n)) costs O(log n) bits and
// an element key costs O(log n) bits.

// IntVal is a single integer aggregate (counts, sums, sizes).
type IntVal int64

// Bits returns the encoding size of the integer.
func (v IntVal) Bits() int {
	x := int64(v)
	if x < 0 {
		x = -x
	}
	return 1 + mathx.BitsFor(uint64(x))
}

// Int2Val is a pair of integers (e.g. the (k′, k″) removal counts of
// KSelect Phase 1, or the (L, R) rank vector of Phase 2c).
type Int2Val struct{ A, B int64 }

// Bits returns the encoding size of the pair.
func (v Int2Val) Bits() int { return IntVal(v.A).Bits() + IntVal(v.B).Bits() }

// SumInt2 is a Combine that adds Int2Val contributions entrywise.
func SumInt2(self *ldb.VInfo, seq uint64, params Value, own Value, kids []KidValue) Value {
	t := own.(Int2Val)
	for _, kv := range kids {
		k := kv.V.(Int2Val)
		t.A += k.A
		t.B += k.B
	}
	return t
}

// KeyVal is a single element key (priority plus tiebreaker id).
type KeyVal prio.Key

// Bits returns the encoding size of the key.
func (v KeyVal) Bits() int { return prio.Key(v).Bits() }

// KeyRangeVal is a closed key interval [Lo, Hi] (the [P_min, P_max] window
// of KSelect Phase 1 and the [key(c_l), key(c_r)] window of Phase 2c).
type KeyRangeVal struct{ Lo, Hi prio.Key }

// Bits returns the encoding size of the range.
func (v KeyRangeVal) Bits() int { return v.Lo.Bits() + v.Hi.Bits() }

// KeyHull is a Combine that takes the hull of KeyRangeVal contributions:
// the smallest Lo and the largest Hi.
func KeyHull(self *ldb.VInfo, seq uint64, params Value, own Value, kids []KidValue) Value {
	w := own.(KeyRangeVal)
	for _, kv := range kids {
		k := kv.V.(KeyRangeVal)
		w.Lo = prio.MinKeyOf(w.Lo, k.Lo)
		w.Hi = prio.MaxKeyOf(w.Hi, k.Hi)
	}
	return w
}

// IntervalVal is a half-open-free closed integer interval [Lo, Hi];
// empty when Hi < Lo. Used for position intervals.
type IntervalVal struct{ Lo, Hi int64 }

// Bits returns the encoding size of the interval.
func (v IntervalVal) Bits() int { return IntVal(v.Lo).Bits() + IntVal(v.Hi).Bits() }

// Size returns the cardinality of the interval.
func (v IntervalVal) Size() int64 {
	if v.Hi < v.Lo {
		return 0
	}
	return v.Hi - v.Lo + 1
}

// NilVal is an empty aggregate for protocols that only need the tree
// synchronization (pure barriers / go-ahead broadcasts).
type NilVal struct{}

// Bits returns the (constant) encoding size.
func (NilVal) Bits() int { return 1 }
