package kselect

import (
	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// Distributed sorting (§4.3, Algorithm 3). Each sampled candidate c_i is
// routed to the sorting root responsible for the pseudorandom point of its
// position; the root spreads n′ copies over a distribution tree T(v_i)
// whose edges are de Bruijn steps (virtual edges of the LDB, taken at the
// nearest middle node pred-ward, one MidPred hop away); copy (i,j) is routed to the
// meeting point h(i,j) = h(j,i) where it is compared against copy (j,i);
// the outcome vectors are aggregated back up T(v_i), giving v_i the order
// of c_i as L+1, which v_i reports with c_i's position to the node that
// issued c_i (the done convergecast of protos.go starts there).

// keyBits is the accounted size of an element key in sorting messages.
const keyBits = 128

// SampleRootMsg (routed) makes the receiving node the sorting root of the
// candidate assigned to position Pos, issued by node Issuer.
type SampleRootMsg struct {
	Epoch  uint64
	Pos    int64
	NPrime int64
	Elem   prio.Element
	Issuer sim.NodeID
}

// Bits accounts epoch, position, n′, the candidate and the issuer.
func (m *SampleRootMsg) Bits() int { return 4*64 + m.Elem.Bits() }

// Kind names the message for instrumentation (routed: "route/sample-root").
func (m *SampleRootMsg) Kind() string { return "sample-root" }

// DistSeekMsg jumps to the nearest middle node pred-ward, which then takes
// the de Bruijn step for the [Lo,Hi] subtree of root Root's distribution
// tree.
type DistSeekMsg struct {
	Epoch   uint64
	Root    int64
	Lo, Hi  int64
	Key     prio.Key
	Bit     int
	Parent  sim.NodeID
	ParentJ int64
}

// Bits accounts the subtree descriptor.
func (m *DistSeekMsg) Bits() int { return 5*64 + keyBits + 1 }

// Kind names the message for instrumentation.
func (m *DistSeekMsg) Kind() string { return "sort/seek" }

// DistArriveMsg lands on the new holder of the [Lo,Hi] subtree (the left
// or right virtual node reached by the de Bruijn step).
type DistArriveMsg struct {
	Epoch   uint64
	Root    int64
	Lo, Hi  int64
	Key     prio.Key
	Parent  sim.NodeID
	ParentJ int64
}

// Bits accounts the subtree descriptor.
func (m *DistArriveMsg) Bits() int { return 5*64 + keyBits }

// Kind names the message for instrumentation.
func (m *DistArriveMsg) Kind() string { return "sort/arrive" }

// CopyMsg (routed) carries copy (I,J) — root I's key, copy index J — to
// the meeting point h(I,J).
type CopyMsg struct {
	Epoch  uint64
	I, J   int64
	Key    prio.Key
	Holder sim.NodeID
}

// Bits accounts indices, key and the holder reference.
func (m *CopyMsg) Bits() int { return 4*64 + keyBits }

// Kind names the message for instrumentation (routed: "route/copy").
func (m *CopyMsg) Kind() string { return "copy" }

// VecMsg carries a comparison-outcome vector (L,R) to the holder of copy
// (Root, J) — either a single comparison result from a meeting point or an
// aggregated subtree vector from a child holder.
type VecMsg struct {
	Epoch uint64
	Root  int64
	J     int64
	L, R  int64
}

// Bits accounts the indices and the vector.
func (m *VecMsg) Bits() int { return 5 * 64 }

// Kind names the message for instrumentation.
func (m *VecMsg) Kind() string { return "sort/vector" }

// OrderedMsg tells the node that issued the candidate at position Pos that
// its sorting root knows the candidate's order.
type OrderedMsg struct {
	Epoch      uint64
	Pos, Order int64
}

// Bits accounts the epoch, the position and the order.
func (m *OrderedMsg) Bits() int { return 3 * 64 }

// Kind names the message for instrumentation.
func (m *OrderedMsg) Kind() string { return "sort/ordered" }

// rootPoint is the pseudorandom point of a sorting root for a position.
func (s *Selector) rootPoint(epoch uint64, pos int64) float64 {
	return s.hasher.PairUnit(epoch*2+1, uint64(pos))
}

// meetPoint is the symmetric pair hash h(i,j) = h(j,i), salted per epoch.
func (s *Selector) meetPoint(epoch uint64, i, j int64) float64 {
	if i > j {
		i, j = j, i
	}
	h := hashutil.Mix3(epoch, uint64(i), uint64(j))
	return s.hasher.Unit(h)
}

// sortEpoch checks a sorting message's epoch at this node. A node whose
// subtree held no candidate is skipped by the sample's start, and so still
// knows an older epoch, yet it may host a sorting root, a holder or a
// meeting point: it adopts a later epoch from the first sorting message it
// gets. Every message of an epoch is consumed before the next epoch's
// sample starts, so an older epoch is a protocol error.
func (n *Node) sortEpoch(epoch uint64) {
	if epoch < n.epoch {
		panic("kselect: sorting message from a stale epoch")
	}
	n.epoch = epoch
}

// newRoot makes this node the sorting root v_i for position m.Pos: it
// records the root in the root table and installs the root of the distribution tree over [1, n′].
func (n *Node) newRoot(ctx *sim.Context, self *ldb.VInfo, m *SampleRootMsg) {
	n.sortEpoch(m.Epoch)
	rt := n.sel.tables.root(m.Pos)
	if rt == nil {
		panic("kselect: sorting root outside the epoch's n′ positions")
	}
	if rt.state != entryFree {
		panic("kselect: duplicate holder")
	}
	*rt = rootEntry{owner: self.ID, issuer: m.Issuer, state: entryLive}
	n.newHolder(ctx, self, m.Epoch, m.Pos, 1, m.NPrime, prio.KeyOf(m.Elem), sim.None, 0)
}

// newHolder installs the holder of subtree [lo,hi] for root rootPos: it
// keeps the copy j = mid, spawns the two child subtrees along de Bruijn
// edges and routes its own copy to the meeting point.
func (n *Node) newHolder(ctx *sim.Context, self *ldb.VInfo, epoch uint64, rootPos, lo, hi int64, key prio.Key, parent sim.NodeID, parentJ int64) {
	n.sortEpoch(epoch)
	mid := (lo + hi) / 2
	hs := n.sel.tables.holder(rootPos, mid)
	if hs == nil {
		panic("kselect: holder outside the epoch's n′ × n′ copies")
	}
	if hs.state != entryFree {
		panic("kselect: duplicate holder")
	}
	*hs = holderEntry{owner: self.ID, parent: parent, parentJ: int32(parentJ), expect: 1, state: entryLive}
	n.holdersCreated++

	// Spawn child subtrees: [lo, mid-1] via the 0-edge, [mid+1, hi] via
	// the 1-edge.
	for _, c := range []struct {
		lo, hi int64
		bit    int
	}{{lo, mid - 1, 0}, {mid + 1, hi, 1}} {
		if c.hi < c.lo {
			continue
		}
		hs.expect++
		seek := &DistSeekMsg{
			Epoch: epoch, Root: rootPos, Lo: c.lo, Hi: c.hi,
			Key: key, Bit: c.bit, Parent: self.ID, ParentJ: mid,
		}
		n.forwardSeek(ctx, self, seek)
	}

	// The holder's own copy: a copy never compares against itself.
	if mid == rootPos {
		n.addVec(ctx, self, epoch, rootPos, mid, 0, 0)
		return
	}
	copyMsg := &CopyMsg{Epoch: epoch, I: rootPos, J: mid, Key: key, Holder: self.ID}
	route := ldb.NewRoute(n.sel.ov.N, n.sel.meetPoint(epoch, rootPos, mid), copyMsg)
	if ldb.Forward(ctx, n.sel.ov, self, route) {
		n.onCopy(ctx, self, copyMsg)
	}
}

// forwardSeek moves a DistSeekMsg one step: a middle node takes the de
// Bruijn step to its left/right sibling (whose label is exactly
// (m+bit)/2); any other node sends it over its MidPred edge to the nearest
// middle node pred-ward.
func (n *Node) forwardSeek(ctx *sim.Context, self *ldb.VInfo, m *DistSeekMsg) {
	if self.Kind == ldb.Middle {
		kind := ldb.Left
		if m.Bit == 1 {
			kind = ldb.Right
		}
		ctx.Send(ldb.VID(self.Host, kind), &DistArriveMsg{
			Epoch: m.Epoch, Root: m.Root, Lo: m.Lo, Hi: m.Hi,
			Key: m.Key, Parent: m.Parent, ParentJ: m.ParentJ,
		})
		return
	}
	ctx.Send(self.MidPred, m)
}

func (n *Node) onSeek(ctx *sim.Context, self *ldb.VInfo, m *DistSeekMsg) {
	n.forwardSeek(ctx, self, m)
}

// onCopy keeps the first copy of a pair at its meeting point; when the
// second arrives, the two are compared and the outcome vectors dispatched.
func (n *Node) onCopy(ctx *sim.Context, self *ldb.VInfo, m *CopyMsg) {
	n.sortEpoch(m.Epoch)
	mp := n.sel.tables.meetAt(m.I, m.J)
	if mp == nil {
		panic("kselect: copy outside the epoch's pairs")
	}
	switch {
	case mp.state == entryFree:
		*mp = meetEntry{key: m.Key, holder: m.Holder, owner: self.ID, lowI: m.I < m.J, state: entryLive}
		return
	case mp.state == entryDone:
		panic("kselect: more than two copies at a meeting point")
	case mp.owner != self.ID:
		panic("kselect: copies of one pair at two meeting points")
	}
	mp.state = entryDone
	// x is the first copy to arrive, carrying key(c_{x's root}); y is m.
	// The smaller key wins. The loser's holder learns one candidate is
	// smaller: (1,0); the winner's: (0,1).
	xRoot, xJ := max(m.I, m.J), min(m.I, m.J)
	if mp.lowI {
		xRoot, xJ = xJ, xRoot
	}
	xl, yl := int64(1), int64(0)
	if mp.key.Less(m.Key) {
		xl, yl = 0, 1
	}
	ctx.Send(mp.holder, &VecMsg{Epoch: m.Epoch, Root: xRoot, J: xJ, L: xl, R: 1 - xl})
	ctx.Send(m.Holder, &VecMsg{Epoch: m.Epoch, Root: m.I, J: m.J, L: yl, R: 1 - yl})
}

func (n *Node) onVec(ctx *sim.Context, self *ldb.VInfo, m *VecMsg) {
	n.addVec(ctx, self, m.Epoch, m.Root, m.J, m.L, m.R)
}

// addVec accumulates a vector at holder (root, j); when the holder has all
// contributions it forwards the combined vector to its parent, or — at the
// sorting root — records the candidate's order L+1.
func (n *Node) addVec(ctx *sim.Context, self *ldb.VInfo, epoch uint64, root, j, l, r int64) {
	n.sortEpoch(epoch)
	hs := n.sel.tables.holder(root, j)
	if hs == nil || hs.state != entryLive {
		panic("kselect: vector for unknown holder")
	}
	if hs.owner != self.ID {
		panic("kselect: vector for a holder hosted by another node")
	}
	hs.l += int32(l)
	hs.r += int32(r)
	hs.got++
	if hs.got < hs.expect {
		return
	}
	hs.state = entryDone
	if hs.parent != sim.None {
		ctx.Send(hs.parent, &VecMsg{Epoch: epoch, Root: root, J: int64(hs.parentJ), L: int64(hs.l), R: int64(hs.r)})
		return
	}
	// Sorting root: order of c_root is L+1 (Algorithm 3), reported to the
	// candidate's issuer.
	rt := n.hostedRoot(self.ID, root)
	rt.order = int64(hs.l) + 1
	rt.state = entryDone
	if rt.issuer == self.ID {
		n.onOrdered(ctx, self, epoch, root, rt.order)
		return
	}
	ctx.Send(rt.issuer, &OrderedMsg{Epoch: epoch, Pos: root, Order: rt.order})
}
