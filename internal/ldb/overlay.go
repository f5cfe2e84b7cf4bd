// Package ldb implements the Linearized de Bruijn network of Appendix A
// (Definition A.1): every real process emulates three virtual nodes — a
// left node with label m/2, a middle node with pseudorandom label
// m ∈ [0,1), and a right node with label (m+1)/2 — arranged on a sorted
// cycle with linear edges between label-consecutive virtual nodes and
// virtual edges between co-hosted ones. The virtual edges are exactly the
// de Bruijn edges x → x/2 and x → (x+1)/2 of the continuous–discrete
// approach, which is what makes O(log n) routing (Lemma A.2) and the
// aggregation-tree embedding (Lemma 2.2) possible.
//
// The package provides the static overlay construction (the "god view"
// handed to each node as its local neighbourhood knowledge), hop-by-hop
// routing executed purely on local state, and join/leave splicing.
package ldb

import (
	"fmt"
	"sort"

	"dpq/internal/hashutil"
	"dpq/internal/sim"
)

// Kind distinguishes the three virtual nodes a real process emulates.
type Kind int

// Virtual node kinds. The numeric values are the id offsets within a host:
// virtual node id = 3·host + kind.
const (
	Left Kind = iota
	Middle
	Right
)

func (k Kind) String() string {
	switch k {
	case Left:
		return "left"
	case Middle:
		return "middle"
	case Right:
		return "right"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// VInfo is the local knowledge of one virtual node: its identity on the
// cycle and its overlay neighbours. Protocol handlers only ever read the
// VInfo of the virtual nodes their own host emulates (a real process runs
// its left, middle and right node together, and routing's stop rules use
// all three) — this is what keeps the simulation honest about locality.
type VInfo struct {
	ID    sim.NodeID
	Host  int // real process emulating this virtual node
	Kind  Kind
	Label float64

	Pred, Succ sim.NodeID // linear edges on the sorted cycle
	PredLabel  float64
	SuccLabel  float64
	// MidPred is the nearest middle node strictly pred-ward on the cycle
	// (the node itself only when it is the sole middle node): the shortcut
	// that lets a de Bruijn step leave from any node in one hop.
	MidPred sim.NodeID

	Parent   sim.NodeID // aggregation-tree parent (sim.None for the anchor)
	Children []sim.NodeID
}

// Overlay is a constructed LDB over n real processes. Virtual node ids are
// dense: id = 3·host + kind, so the simulator runs 3n nodes grouped by
// host. Hosts may join and leave (AddHost/RemoveHost); departed hosts keep
// their ids but are excluded from the cycle and the tree.
type Overlay struct {
	N      int // active real processes
	V      []VInfo
	Anchor sim.NodeID // root of the aggregation tree: minimal-label node
	ids    []uint64   // process identifier per host slot
	active []bool     // whether the host slot is part of the network
	hasher hashutil.Hasher
	order  []sim.NodeID
	labels []float64 // labels in cycle order, parallel to order
	// kids is the flat backing array for every VInfo.Children slice: one
	// allocation for the whole tree instead of one per parent, rebuilt by
	// buildTree. Children views into it are read-only by convention.
	kids []sim.NodeID
	// hops is the path-length histogram per routed payload kind, fed by
	// Forward at delivery (see HopStats).
	hops [len(routeKinds)]hopHist
}

// VID returns the virtual node id of (host, kind).
func VID(host int, kind Kind) sim.NodeID { return sim.NodeID(3*host + int(kind)) }

// HostOf returns the real process emulating virtual node id.
func HostOf(id sim.NodeID) int { return int(id) / 3 }

// KindOf returns the kind of virtual node id.
func KindOf(id sim.NodeID) Kind { return Kind(int(id) % 3) }

// New builds the overlay for n ≥ 1 real processes with pseudorandom middle
// labels derived from hasher (Appendix A: labels come from a publicly known
// pseudorandom hash applied to the node identifier).
func New(n int, hasher hashutil.Hasher) *Overlay {
	if n < 1 {
		panic("ldb: need at least one process")
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i) + 1
	}
	return NewWithIDs(ids, hasher)
}

// NewWithIDs builds the overlay for the given process identifiers (used by
// join/leave experiments where identifier sets change over time).
// Identifiers must be unique: duplicates would collide on the label cycle.
func NewWithIDs(ids []uint64, hasher hashutil.Hasher) *Overlay {
	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			panic("ldb: duplicate process identifier")
		}
		seen[id] = true
	}
	ov := &Overlay{hasher: hasher}
	for _, id := range ids {
		ov.addSlot(id)
	}
	ov.rebuild()
	return ov
}

// addSlot appends a host slot with its three virtual nodes; the caller must
// rebuild afterwards.
func (ov *Overlay) addSlot(id uint64) int {
	host := len(ov.ids)
	ov.ids = append(ov.ids, id)
	ov.active = append(ov.active, true)
	m := ov.hasher.Unit(id)
	ov.V = append(ov.V,
		VInfo{ID: VID(host, Left), Host: host, Kind: Left, Label: m / 2},
		VInfo{ID: VID(host, Middle), Host: host, Kind: Middle, Label: m},
		VInfo{ID: VID(host, Right), Host: host, Kind: Right, Label: (m + 1) / 2},
	)
	return host
}

// AddHost joins a new process with the given identifier and returns its
// host slot. The overlay is restructured immediately (the message-level
// cost of a batch of joins is measured by the JoinLeaveRun protocol).
// The identifier must not belong to an active host.
func (ov *Overlay) AddHost(id uint64) int {
	for slot, existing := range ov.ids {
		if existing == id && ov.active[slot] {
			panic("ldb: duplicate process identifier")
		}
	}
	host := ov.addSlot(id)
	ov.rebuild()
	return host
}

// RemoveHost makes the process at the given slot leave the network.
func (ov *Overlay) RemoveHost(host int) {
	if !ov.active[host] {
		panic("ldb: removing inactive host")
	}
	if ov.N == 1 {
		panic("ldb: cannot remove the last host")
	}
	ov.active[host] = false
	ov.rebuild()
}

// ActiveHost reports whether the host slot is part of the network.
func (ov *Overlay) ActiveHost(host int) bool { return ov.active[host] }

// rebuild recomputes the sorted cycle, linear edges, MidPred shortcuts and
// the aggregation tree from the current labels of active hosts.
func (ov *Overlay) rebuild() {
	ov.N = 0
	ov.order = ov.order[:0]
	for i := range ov.V {
		if ov.active[HostOf(sim.NodeID(i))] {
			ov.order = append(ov.order, sim.NodeID(i))
		}
	}
	for _, a := range ov.active {
		if a {
			ov.N++
		}
	}
	sort.Slice(ov.order, func(i, j int) bool {
		a, b := &ov.V[ov.order[i]], &ov.V[ov.order[j]]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.ID < b.ID // deterministic tiebreak; labels collide with prob. 0
	})
	nv := len(ov.order)
	ov.labels = make([]float64, nv)
	// The nearest middle node pred-ward of the cycle's first position is
	// the last middle node in order (the wrap).
	mid := sim.None
	for pos := nv - 1; mid == sim.None; pos-- {
		if KindOf(ov.order[pos]) == Middle {
			mid = ov.order[pos]
		}
	}
	for pos, id := range ov.order {
		ov.labels[pos] = ov.V[id].Label
		pred := ov.order[(pos-1+nv)%nv]
		succ := ov.order[(pos+1)%nv]
		v := &ov.V[id]
		v.Pred, v.PredLabel = pred, ov.V[pred].Label
		v.Succ, v.SuccLabel = succ, ov.V[succ].Label
		v.MidPred = mid
		if v.Kind == Middle {
			mid = id
		}
	}
	ov.buildTree()
}

// buildTree assigns parents per Appendix A — p(middle)=left sibling,
// p(left)=pred, p(right)=middle sibling — cuts the cycle's wrap edge at the
// minimal-label node (always a left node), and derives children as the
// inverse relation.
func (ov *Overlay) buildTree() {
	ov.Anchor = ov.order[0]
	for i := range ov.V {
		v := &ov.V[i]
		v.Children = nil
		v.Parent = sim.None
		if !ov.active[v.Host] {
			continue
		}
		switch v.Kind {
		case Middle:
			v.Parent = VID(v.Host, Left)
		case Right:
			v.Parent = VID(v.Host, Middle)
		case Left:
			if v.ID == ov.Anchor {
				v.Parent = sim.None
			} else {
				v.Parent = v.Pred
			}
		}
	}
	// Derive children as the inverse relation with a counting sort into one
	// flat backing array (ov.kids): count per parent, carve per-parent
	// subslices, then scatter in ascending node-id order — which leaves each
	// Children slice sorted, since VInfo.ID equals the index.
	total := 0
	for i := range ov.V {
		if ov.V[i].Parent != sim.None {
			total++
		}
	}
	if cap(ov.kids) < total {
		ov.kids = make([]sim.NodeID, total)
	}
	ov.kids = ov.kids[:total]
	counts := make([]int, len(ov.V))
	for i := range ov.V {
		if p := ov.V[i].Parent; p != sim.None {
			counts[p]++
		}
	}
	off := 0
	for i := range ov.V {
		ov.V[i].Children = ov.kids[off : off : off+counts[i]]
		off += counts[i]
	}
	for i := range ov.V {
		if p := ov.V[i].Parent; p != sim.None {
			ov.V[p].Children = append(ov.V[p].Children, ov.V[i].ID)
		}
	}
}

// NumVirtual returns the number of virtual nodes (3·N).
func (ov *Overlay) NumVirtual() int { return len(ov.V) }

// Info returns the local knowledge of virtual node id.
func (ov *Overlay) Info(id sim.NodeID) *VInfo { return &ov.V[id] }

// Responsible returns the virtual node responsible for point p ∈ [0,1):
// the predecessor of p on the cycle, i.e. the node v with v ≤ p < succ(v),
// wrapping to the maximal-label node for p below the minimum label. This is
// the god view used by tests; routing reaches the same node hop by hop.
func (ov *Overlay) Responsible(p float64) sim.NodeID {
	idx := sort.SearchFloat64s(ov.labels, p)
	// labels[idx-1] <= p (SearchFloat64s returns first index with
	// labels[idx] >= p; equal labels mean the node at idx owns p).
	if idx < len(ov.labels) && ov.labels[idx] == p {
		return ov.order[idx]
	}
	if idx == 0 {
		return ov.order[len(ov.order)-1]
	}
	return ov.order[idx-1]
}

// TreeHeight returns the height of the aggregation tree (edges on the
// longest root-to-leaf path) — Corollary A.4 bounds it by O(log n) w.h.p.
func (ov *Overlay) TreeHeight() int {
	depth := make([]int, len(ov.V))
	var dfs func(id sim.NodeID) int
	dfs = func(id sim.NodeID) int {
		h := 0
		for _, c := range ov.V[id].Children {
			depth[c] = depth[id] + 1
			if ch := dfs(c) + 1; ch > h {
				h = ch
			}
		}
		return h
	}
	return dfs(ov.Anchor)
}

// Depth returns each virtual node's distance from the anchor.
func (ov *Overlay) Depth(id sim.NodeID) int {
	d := 0
	for cur := id; ov.V[cur].Parent != sim.None; cur = ov.V[cur].Parent {
		d++
		if d > len(ov.V) {
			panic("ldb: parent relation is cyclic")
		}
	}
	return d
}

// IsTree verifies that the parent relation forms a single tree rooted at
// the anchor covering all virtual nodes. Used by tests and join/leave
// restoration checks.
func (ov *Overlay) IsTree() bool {
	seen := make([]bool, len(ov.V))
	count := 0
	var dfs func(id sim.NodeID)
	dfs = func(id sim.NodeID) {
		if seen[id] {
			return
		}
		seen[id] = true
		count++
		for _, c := range ov.V[id].Children {
			dfs(c)
		}
	}
	dfs(ov.Anchor)
	return count == len(ov.order)
}

// Group returns the grouping function mapping virtual nodes to hosts, for
// the engines' congestion accounting. Host ids run to the number of slots,
// departed hosts included, so that is the group count, not N.
func (ov *Overlay) Group() (groups int, f func(sim.NodeID) int) {
	return len(ov.active), func(id sim.NodeID) int { return HostOf(id) }
}
