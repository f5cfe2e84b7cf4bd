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
	// candKids names the children whose subtrees held candidates after the
	// last sample's prune, issuerKids those whose subtrees issued samples
	// in it (sampleProto). The selection's first start resets candKids.
	candKids, issuerKids aggtree.Mask

	epoch uint64
	// sample holds the candidates this node chose in the current sample
	// instance; once positions are scattered, sample[i] has position
	// samplePos+i. The issuer keeps them, with their orders as the sorting
	// roots report them, for the epoch: it reports those of order ordL and
	// ordR in the done convergecast (phase 3: ordL is k, and the candidate
	// itself is reported), and any other order a failed rank check asks
	// for in the boundary gather.
	sample     []sampled
	samplePos  int64
	ordL, ordR int64
	exact      bool
	// The sort's end (doneProto): done is this node's contribution so far,
	// unordered counts the candidates whose order it has not yet heard,
	// and sortSeq is the sample instance whose done convergecast it still
	// owes (0 once contributed).
	done      doneVal
	unordered int64
	sortSeq   uint64

	// holdersCreated counts distribution-tree memberships over the whole
	// run (Lemma 4.5 expects Θ(1) per node per sorting round).
	holdersCreated int
}

// sampled is a candidate this node issued in the current sample, with its
// order once its sorting root has reported it (0 before).
type sampled struct {
	elem  prio.Element
	order int64
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

// hostedRoot returns the sorting root at position pos, checking that this
// node owns it.
func (n *Node) hostedRoot(self sim.NodeID, pos int64) *rootEntry {
	rt := n.sel.tables.root(pos)
	if rt == nil || rt.owner != self {
		panic("kselect: sorting root hosted by another node")
	}
	return rt
}

// issued returns the candidate this node issued whose order is k this
// epoch, if its sorting root has reported it.
func (n *Node) issued(k int64) (prio.Element, bool) {
	if k < 1 {
		return prio.Element{}, false
	}
	for _, c := range n.sample {
		if c.order == k {
			return c.elem, true
		}
	}
	return prio.Element{}, false
}

// onOrdered counts the candidate this node issued at position pos as
// ordered by its sorting root, noting it for the done convergecast if its
// order is one the anchor asked for.
func (n *Node) onOrdered(ctx *sim.Context, self *ldb.VInfo, epoch uint64, pos, order int64) {
	if epoch != n.epoch {
		panic("kselect: order report from a stale epoch")
	}
	i := pos - n.samplePos
	if i < 0 || i >= int64(len(n.sample)) {
		panic("kselect: order report for a candidate issued elsewhere")
	}
	if n.unordered--; n.unordered < 0 {
		panic("kselect: more order reports than candidates issued")
	}
	n.sample[i].order = order
	switch e := n.sample[i].elem; {
	case order == n.ordL && n.exact:
		n.done.Ans, n.done.HasAns = e, true
	case order == n.ordL:
		n.done.Lo = prio.KeyOf(e)
	case order == n.ordR:
		n.done.Hi = prio.KeyOf(e)
	}
	n.maybeDone(ctx, self)
}

// maybeDone contributes this node's part of the done convergecast once its
// positions are scattered and every candidate it issued is ordered.
func (n *Node) maybeDone(ctx *sim.Context, self *ldb.VInfo) {
	if n.sortSeq == 0 || n.unordered != 0 {
		return
	}
	seq := n.sortSeq
	n.sortSeq = 0
	n.runner.Contribute(ctx, self, tagDone, seq, n.done)
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
		n.onOrdered(ctx, self, m.Epoch, m.Pos, m.Order)
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

// begin runs when the selection's first start (window or sample) reaches
// the node, as it reaches every node: every subtree may hold candidates,
// and an embedded selection installs the node's through the host's hook
// (Selector.SetLoad).
func (n *Node) begin(ctx *sim.Context, self *ldb.VInfo) {
	n.candKids = aggtree.AllKids
	if n.sel.load != nil {
		n.cand, n.sorted = n.sel.load(ctx, self), false
	}
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
