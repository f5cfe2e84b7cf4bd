package kselect

import (
	"sort"

	"dpq/internal/aggtree"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// Node is one virtual node's KSelect state: its candidate set v.C and its
// per-round sample bookkeeping. Its share of the distributed-sorting state
// (holders of candidate copies, comparison meeting points, sorting roots)
// lives in the Selector's sortTables, in entries that name this node as
// their owner.
type Node struct {
	sel    *Selector
	runner aggtree.Runner

	cand   []prio.Element // remaining candidates, kept sorted by key
	sorted bool

	epoch     uint64
	sampleBuf map[uint64][]prio.Element // seq → elements sampled that instance
	// roots heads the list of sorting roots hosted here this epoch: a
	// position in the Selector's root table, 0 for none.
	roots int64
	// The sort's end (doneProto): issued counts the candidates this node
	// sent to sorting roots this epoch, unordered those whose order it has
	// not yet heard, and sortSeq is the sample instance whose done
	// convergecast it still owes (0 once contributed).
	issued, unordered int64
	sortSeq           uint64

	// holdersCreated counts distribution-tree memberships over the whole
	// run (Lemma 4.5 expects Θ(1) per node per sorting round).
	holdersCreated int
}

// HoldersCreated returns how many distribution-tree holders this node
// hosted over the run.
func (n *Node) HoldersCreated() int { return n.holdersCreated }

func (n *Node) ensureSorted() {
	if n.sorted {
		return
	}
	sort.Slice(n.cand, func(i, j int) bool {
		return prio.KeyOf(n.cand[i]).Less(prio.KeyOf(n.cand[j]))
	})
	n.sorted = true
}

// resetEpoch starts a new sampling round at this node: its sorting state
// is the Selector's tables, which the sample instance sizes for the epoch.
func (n *Node) resetEpoch(epoch uint64) {
	n.epoch = epoch
	n.roots = 0
	if n.sampleBuf == nil {
		n.sampleBuf = make(map[uint64][]prio.Element)
	}
}

// hostedRoot returns the sorting root at position pos of this node's list,
// nil for pos 0, checking that this node owns it.
func (n *Node) hostedRoot(self sim.NodeID, pos int64) *rootEntry {
	if pos == 0 {
		return nil
	}
	rt := n.sel.tables.root(pos)
	if rt == nil || rt.owner != self {
		panic("kselect: sorting root hosted by another node")
	}
	return rt
}

// orderedRoot returns the sorting root hosted here whose candidate has
// order k this epoch, or nil.
func (n *Node) orderedRoot(self sim.NodeID, k int64) *rootEntry {
	for rt := n.hostedRoot(self, n.roots); rt != nil; rt = n.hostedRoot(self, rt.next) {
		if rt.state == entryDone && rt.order == k {
			return rt
		}
	}
	return nil
}

// onOrdered counts one of this node's candidates as ordered by its sorting
// root.
func (n *Node) onOrdered(ctx *sim.Context, self *ldb.VInfo, epoch uint64) {
	if epoch != n.epoch {
		panic("kselect: order report from a stale epoch")
	}
	if n.unordered--; n.unordered < 0 {
		panic("kselect: more order reports than candidates issued")
	}
	n.maybeDone(ctx, self)
}

// maybeDone contributes this node's issued count to the done convergecast
// once its positions are scattered and every candidate it issued is
// ordered.
func (n *Node) maybeDone(ctx *sim.Context, self *ldb.VInfo) {
	if n.sortSeq == 0 || n.unordered != 0 {
		return
	}
	seq := n.sortSeq
	n.sortSeq = 0
	n.runner.Contribute(ctx, self, tagDone, seq, aggtree.IntVal(n.issued))
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
		n.newHolder(ctx, self, m.Epoch, m.Root, m.Lo, m.Hi, m.Key, m.Parent, m.ParentJ)
	case *VecMsg:
		n.onVec(ctx, self, m)
	case *OrderedMsg:
		n.onOrdered(ctx, self, m.Epoch)
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
		n.newRoot(ctx, self, m)
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
