package kselect

import (
	"math"

	"dpq/internal/prio"
	"dpq/internal/sim"
)

// sortTables is the distributed sort's state (Algorithm 3) for the current
// sorting epoch, laid out densely for all nodes at once instead of in
// per-node maps. Entry (root, j) of the holder table is the holder of copy
// j of root's candidate, entry {a, b} of the meeting-point table is the
// meeting point h(a,b), and entry root of the root table is the sorting
// root v_root with its candidate's issuer and order. Each entry is still one node's state: it
// records the node that owns it, and every access checks that the message
// arrived there. The Selector sizes the tables when the sample instance
// fixes n′, reuses them across the epochs of one selection and releases
// them when the selection finishes.
type sortTables struct {
	nPrime  int64
	holders []holderEntry // n′², at (root−1)·n′ + (j−1)
	meet    []meetEntry   // n′(n′−1)/2, the pair a < b at (b−1)(b−2)/2 + (a−1)
	roots   []rootEntry   // n′, at root−1
}

// Entry states, shared by the three tables.
const (
	entryFree uint8 = iota // not installed this epoch
	entryLive              // installed; awaiting vectors or the partner copy
	entryDone              // aggregated, compared, or (root) order known
)

// holderEntry is the holder of one copy: where its aggregated vector goes
// and the vector so far. Its key is not kept: it travels in the seeks and
// the copy the holder sends when installed.
type holderEntry struct {
	owner   sim.NodeID // the node hosting the holder
	parent  sim.NodeID // sim.None at the sorting root
	parentJ int32
	l, r    int32
	expect  uint8
	got     uint8
	state   uint8
}

// meetEntry is a meeting point holding the first copy of its pair to
// arrive, until the second one does.
type meetEntry struct {
	key    prio.Key   // the first copy's key
	holder sim.NodeID // the first copy's holder
	owner  sim.NodeID // the meeting-point node
	lowI   bool       // the first copy is (a, b), copy b of root a
	state  uint8
}

// rootEntry is a sorting root: the node that issued its candidate and the
// candidate's order once the distribution tree has aggregated. The
// candidate itself stays with its issuer (Node.sample).
type rootEntry struct {
	order  int64
	owner  sim.NodeID
	issuer sim.NodeID
	state  uint8
}

// reset sizes the tables for an epoch of nPrime candidates, reusing their
// storage when it is large enough.
func (t *sortTables) reset(nPrime int64) {
	if nPrime > math.MaxInt32 {
		panic("kselect: n′ exceeds the sort tables' index range")
	}
	t.nPrime = nPrime
	t.holders = resize(t.holders, nPrime*nPrime)
	t.meet = resize(t.meet, nPrime*(nPrime-1)/2)
	t.roots = resize(t.roots, nPrime)
}

// resize returns s cleared and resliced to n entries, or a new slice if its
// capacity is short.
func resize[E any](s []E, n int64) []E {
	if int64(cap(s)) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// holder returns the entry of copy (root, j), or nil outside the epoch's
// n′ × n′ table.
func (t *sortTables) holder(root, j int64) *holderEntry {
	if root < 1 || root > t.nPrime || j < 1 || j > t.nPrime {
		return nil
	}
	if i := (root-1)*t.nPrime + j - 1; i < int64(len(t.holders)) {
		return &t.holders[i]
	}
	return nil
}

// meetAt returns the meeting point of the pair {i, j}, or nil outside the
// epoch's pairs.
func (t *sortTables) meetAt(i, j int64) *meetEntry {
	a, b := min(i, j), max(i, j)
	if a < 1 || b > t.nPrime || a == b {
		return nil
	}
	if k := (b-1)*(b-2)/2 + a - 1; k < int64(len(t.meet)) {
		return &t.meet[k]
	}
	return nil
}

// root returns the entry of the sorting root for position pos, or nil
// outside [1, n′].
func (t *sortTables) root(pos int64) *rootEntry {
	if pos < 1 || pos > int64(len(t.roots)) {
		return nil
	}
	return &t.roots[pos-1]
}
