package kselect

import (
	"sort"

	"dpq/internal/aggtree"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// Node is one virtual node's KSelect state: its candidate set v.C, its
// per-round sample bookkeeping and its share of the distributed-sorting
// state (holders of candidate copies and comparison meeting points).
type Node struct {
	sel    *Selector
	runner aggtree.Runner

	cand   []prio.Element // remaining candidates, kept sorted by key
	sorted bool

	epoch     uint64
	sampleBuf map[uint64][]prio.Element // seq → elements sampled that instance
	holders   map[holderKey]*holderState
	meet      map[pairKey][]meetCopy
	completed map[int64]completedRoot // rootPos → sorting outcome (current epoch)

	// holdersCreated counts distribution-tree memberships over the whole
	// run (Lemma 4.5 expects Θ(1) per node per sorting round).
	holdersCreated int
}

// HoldersCreated returns how many distribution-tree holders this node
// hosted over the run.
func (n *Node) HoldersCreated() int { return n.holdersCreated }

type holderKey struct {
	epoch uint64
	root  int64
	j     int64
}

type pairKey struct {
	epoch uint64
	a, b  int64 // a < b
}

type meetCopy struct {
	root   int64
	j      int64
	key    prio.Key
	holder sim.NodeID
}

type holderState struct {
	root    int64
	j       int64
	key     prio.Key
	parent  sim.NodeID // sim.None at the sorting root
	parentJ int64
	expect  int
	got     int
	l, r    int64
	elem    prio.Element // sorting root only: the candidate itself
}

type completedRoot struct {
	order int64
	key   prio.Key
	elem  prio.Element
}

func (n *Node) ensureSorted() {
	if n.sorted {
		return
	}
	sort.Slice(n.cand, func(i, j int) bool {
		return prio.KeyOf(n.cand[i]).Less(prio.KeyOf(n.cand[j]))
	})
	n.sorted = true
}

// resetEpoch clears all sorting state for a new sampling round. The
// tables stay nil until their first write (newHolder, onCopy, addVec):
// most nodes host no holder, meeting point or sorting root in a round.
func (n *Node) resetEpoch(epoch uint64) {
	n.epoch = epoch
	n.holders = nil
	n.meet = nil
	n.completed = nil
	if n.sampleBuf == nil {
		n.sampleBuf = make(map[uint64][]prio.Element)
	}
}

// Handle dispatches a non-routed message at virtual node id, reporting
// whether it belonged to KSelect. Routed payloads go through HandleRouted
// after the host protocol's router delivers them.
func (n *Node) Handle(ctx *sim.Context, id sim.NodeID, from sim.NodeID, msg sim.Message) bool {
	self := n.sel.ov.Info(id)
	switch m := msg.(type) {
	case *DistSeekMsg:
		n.onSeek(ctx, self, m)
	case *DistArriveMsg:
		n.newHolder(ctx, self, m.Epoch, m.Root, m.Lo, m.Hi, m.Key, prio.Element{}, m.Parent, m.ParentJ)
	case *VecMsg:
		n.onVec(ctx, self, m)
	default:
		return n.runner.Handle(ctx, self, from, msg)
	}
	return true
}

// HandleRouted consumes a KSelect payload that a router delivered at this
// responsible node, reporting whether it belonged to KSelect.
func (n *Node) HandleRouted(ctx *sim.Context, self *ldb.VInfo, payload sim.Message) bool {
	switch m := payload.(type) {
	case *SampleRootMsg:
		// This node is the sorting root v_i for position m.Pos.
		n.newHolder(ctx, self, m.Epoch, m.Pos, 1, m.NPrime, prio.KeyOf(m.Elem), m.Elem, sim.None, 0)
	case *CopyMsg:
		n.onCopy(ctx, self, m)
	default:
		return false
	}
	return true
}

// SetCandidates replaces the node's candidate set — used by host protocols
// (Seap) that reload candidates from their own storage before a selection.
func (n *Node) SetCandidates(elems []prio.Element) {
	n.cand = append(n.cand[:0], elems...)
	n.sorted = false
}

// countLess returns |{c ∈ v.C : key(c) < k}| on the sorted candidate list.
func (n *Node) countLess(k prio.Key) int64 {
	n.ensureSorted()
	return int64(sort.Search(len(n.cand), func(i int) bool {
		return !prio.KeyOf(n.cand[i]).Less(k)
	}))
}

// prune removes candidates outside [lo, hi], returning how many were
// below lo and how many above hi.
func (n *Node) prune(lo, hi prio.Key) (below, above int64) {
	n.ensureSorted()
	kept := n.cand[:0]
	for _, e := range n.cand {
		k := prio.KeyOf(e)
		switch {
		case k.Less(lo):
			below++
		case hi.Less(k):
			above++
		default:
			kept = append(kept, e)
		}
	}
	n.cand = kept
	return below, above
}
