// RankSet: an order-statistic set over element keys, used by the
// rank-error observer (internal/obs) to answer "what is the rank of this
// element among everything currently live?" in O(log m) instead of the
// O(m) a sorted slice would cost per query — the observer asks once per
// DeleteMin, so daemon-scale traces need the logarithmic form.
//
// The structure is a size-augmented treap keyed by the total element
// order (priority, then id). Treap priorities are deterministic hashes of
// the key, so the tree shape — and therefore every iteration order — is a
// pure function of the key set, independent of insertion order. That
// keeps replay-derived statistics identical across engines.
package seqheap

import (
	"dpq/internal/hashutil"
	"dpq/internal/prio"
)

// rsNode is one treap node with subtree-size augmentation.
type rsNode struct {
	key  prio.Key
	hpri uint64
	size int
	l, r *rsNode
}

func size(t *rsNode) int {
	if t == nil {
		return 0
	}
	return t.size
}

func (t *rsNode) fix() *rsNode {
	t.size = 1 + size(t.l) + size(t.r)
	return t
}

// RankSet is a set of element keys supporting rank queries in the total
// order (priority, then id). The zero value is not ready; use NewRankSet.
type RankSet struct {
	root   *rsNode
	hasher hashutil.Hasher
}

// NewRankSet returns an empty rank set.
func NewRankSet() *RankSet {
	return &RankSet{hasher: hashutil.New(0x6a09e667f3bcc908)}
}

// Len returns the number of keys in the set.
func (s *RankSet) Len() int { return size(s.root) }

func keyLess(a, b prio.Key) bool {
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.ID < b.ID
}

// Insert adds k to the set. Inserting a key that is already present
// panics: element ids are unique, so a duplicate is a caller bug.
func (s *RankSet) Insert(k prio.Key) {
	n := &rsNode{key: k, hpri: s.hasher.Pair(uint64(k.Prio), uint64(k.ID)), size: 1}
	s.root = insert(s.root, n)
}

func insert(t, n *rsNode) *rsNode {
	if t == nil {
		return n
	}
	if n.key == t.key {
		panic("seqheap: duplicate key in RankSet")
	}
	if n.hpri > t.hpri {
		// n becomes the new subtree root; split t around n's key.
		n.l, n.r = split(t, n.key)
		return n.fix()
	}
	if keyLess(n.key, t.key) {
		t.l = insert(t.l, n)
	} else {
		t.r = insert(t.r, n)
	}
	return t.fix()
}

// split partitions t into keys < k and keys > k (k itself must not be in t).
func split(t *rsNode, k prio.Key) (lo, hi *rsNode) {
	if t == nil {
		return nil, nil
	}
	if keyLess(t.key, k) {
		t.r, hi = split(t.r, k)
		return t.fix(), hi
	}
	lo, t.l = split(t.l, k)
	return lo, t.fix()
}

// Delete removes k from the set, reporting whether it was present.
func (s *RankSet) Delete(k prio.Key) bool {
	var ok bool
	s.root, ok = remove(s.root, k)
	return ok
}

func remove(t *rsNode, k prio.Key) (*rsNode, bool) {
	if t == nil {
		return nil, false
	}
	if t.key == k {
		return merge(t.l, t.r), true
	}
	var ok bool
	if keyLess(k, t.key) {
		t.l, ok = remove(t.l, k)
	} else {
		t.r, ok = remove(t.r, k)
	}
	return t.fix(), ok
}

// merge joins two treaps where every key of lo precedes every key of hi.
func merge(lo, hi *rsNode) *rsNode {
	if lo == nil {
		return hi
	}
	if hi == nil {
		return lo
	}
	if lo.hpri > hi.hpri {
		lo.r = merge(lo.r, hi)
		return lo.fix()
	}
	hi.l = merge(lo, hi.l)
	return hi.fix()
}

// Rank returns the 1-based rank of k among the keys in the set: 1 for the
// minimum. The key must be present; Rank panics otherwise, because a rank
// query for an element that is not live is a replay bug, not a legitimate
// answer.
func (s *RankSet) Rank(k prio.Key) int {
	r := 1
	t := s.root
	for t != nil {
		switch {
		case k == t.key:
			return r + size(t.l)
		case keyLess(k, t.key):
			t = t.l
		default:
			r += size(t.l) + 1
			t = t.r
		}
	}
	panic("seqheap: Rank of key not in RankSet")
}

// Min returns the smallest key; ok is false when the set is empty.
func (s *RankSet) Min() (k prio.Key, ok bool) {
	t := s.root
	if t == nil {
		return prio.Key{}, false
	}
	for t.l != nil {
		t = t.l
	}
	return t.key, true
}
