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
// of c_i as L+1.

// keyBits is the accounted size of an element key in sorting messages.
const keyBits = 128

// SampleRootMsg (routed) makes the receiving node the sorting root of the
// candidate assigned to position Pos.
type SampleRootMsg struct {
	Epoch  uint64
	Pos    int64
	NPrime int64
	Elem   prio.Element
}

// Bits accounts epoch, position, n′ and the candidate.
func (m *SampleRootMsg) Bits() int { return 3*64 + m.Elem.Bits() }

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

// newHolder installs the holder of subtree [lo,hi] for root rootPos: it
// keeps the copy j = mid, spawns the two child subtrees along de Bruijn
// edges and routes its own copy to the meeting point.
func (n *Node) newHolder(ctx *sim.Context, self *ldb.VInfo, epoch uint64, rootPos, lo, hi int64, key prio.Key, elem prio.Element, parent sim.NodeID, parentJ int64) {
	if epoch != n.epoch {
		panic("kselect: sorting message from a stale epoch")
	}
	mid := (lo + hi) / 2
	hs := &holderState{
		root: rootPos, j: mid, key: key,
		parent: parent, parentJ: parentJ,
		expect: 1,
		elem:   elem,
	}
	hk := holderKey{epoch: epoch, root: rootPos, j: mid}
	if _, dup := n.holders[hk]; dup {
		panic("kselect: duplicate holder")
	}
	if n.holders == nil {
		n.holders = make(map[holderKey]*holderState)
	}
	n.holders[hk] = hs
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

// onCopy buffers a copy at its meeting point; when both copies of a pair
// are present, they are compared and the outcome vectors dispatched.
func (n *Node) onCopy(ctx *sim.Context, self *ldb.VInfo, m *CopyMsg) {
	a, b := m.I, m.J
	if a > b {
		a, b = b, a
	}
	pk := pairKey{epoch: m.Epoch, a: a, b: b}
	if n.meet == nil {
		n.meet = make(map[pairKey][]meetCopy)
	}
	n.meet[pk] = append(n.meet[pk], meetCopy{root: m.I, j: m.J, key: m.Key, holder: m.Holder})
	copies := n.meet[pk]
	if len(copies) < 2 {
		return
	}
	if len(copies) > 2 {
		panic("kselect: more than two copies at a meeting point")
	}
	delete(n.meet, pk)
	x, y := copies[0], copies[1]
	// x carries key(c_{x.root}); smaller key wins. The loser's holder
	// learns one candidate is smaller: (1,0); the winner's: (0,1).
	xWins := x.key.Less(y.key)
	send := func(c meetCopy, l, r int64) {
		ctx.Send(c.holder, &VecMsg{Epoch: m.Epoch, Root: c.root, J: c.j, L: l, R: r})
	}
	if xWins {
		send(x, 0, 1)
		send(y, 1, 0)
	} else {
		send(x, 1, 0)
		send(y, 0, 1)
	}
}

func (n *Node) onVec(ctx *sim.Context, self *ldb.VInfo, m *VecMsg) {
	n.addVec(ctx, self, m.Epoch, m.Root, m.J, m.L, m.R)
}

// addVec accumulates a vector at holder (root, j); when the holder has all
// contributions it forwards the combined vector to its parent, or — at the
// sorting root — records the candidate's order L+1.
func (n *Node) addVec(ctx *sim.Context, self *ldb.VInfo, epoch uint64, root, j, l, r int64) {
	if epoch != n.epoch {
		panic("kselect: vector from a stale epoch")
	}
	hk := holderKey{epoch: epoch, root: root, j: j}
	hs, ok := n.holders[hk]
	if !ok {
		panic("kselect: vector for unknown holder")
	}
	hs.l += l
	hs.r += r
	hs.got++
	if hs.got < hs.expect {
		return
	}
	delete(n.holders, hk)
	if hs.parent != sim.None {
		ctx.Send(hs.parent, &VecMsg{Epoch: epoch, Root: root, J: hs.parentJ, L: hs.l, R: hs.r})
		return
	}
	// Sorting root: order of c_root is L+1 (Algorithm 3).
	if n.completed == nil {
		n.completed = make(map[int64]completedRoot)
	}
	n.completed[root] = completedRoot{order: hs.l + 1, key: hs.key, elem: hs.elem}
}
