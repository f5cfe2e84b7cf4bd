package ldb

import (
	"math"
	"sync/atomic"

	"dpq/internal/mathx"
	"dpq/internal/obs"
	"dpq/internal/sim"
)

// RouteMsg carries a payload toward the virtual node responsible for
// Target using the continuous–discrete de Bruijn emulation of Appendix A.
//
// A route is defined by its destination, not by a walk length: at every hop
// the real process emulating the current virtual node first checks whether
// it can already name the owner from the neighbourhood of the three virtual
// nodes it emulates (see RouteStep), and only otherwise alternates the two
// local moves of the emulation until Hops de Bruijn steps are spent:
//
//  1. at a middle node with label m and h steps left, the step picks the
//     host's left (label exactly m/2) or right (label exactly (m+1)/2)
//     node c, whichever is cyclically closer to the ideal point
//     frac(Target·2^(h−1)) — the de Bruijn step p ← (p+b)/2 on actual
//     labels (see deBruijnStep);
//  2. the next step must leave from a middle node, the nearest one
//     pred-ward of c; the message goes there in one hop over c's MidPred
//     edge (if that is the node itself, it steps again at once). A route
//     originating at a non-middle node likewise starts at its MidPred.
//
// After the last de Bruijn step the message crosses to c itself: its label
// is within O(2^-d) of the target on the cycle, and a final monotone linear
// walk, the short way round, reaches the responsible node (the predecessor
// of Target). Each step costs one message, and the shortcut lands where
// the pred-ward walk to a middle node would, so the visited labels are
// those of the walk Lemma A.2 analyses: O(log n) hops w.h.p. On a small
// cycle the walk would pass through the owner several times, which is what
// the early stop saves.
type RouteMsg struct {
	Target  float64     // destination point in [0,1)
	Hops    int         // remaining de Bruijn steps
	Payload sim.Message // delivered at the responsible node
	Path    int         // hops taken so far (for dilation experiments)

	// bits and kind are fixed by the payload, so NewRoute (and the wire
	// decoder) computes them once per route instead of once per hop. Zero
	// means not computed: a literal RouteMsg computes them on each call.
	bits int
	kind uint8 // index into routeKinds, plus one
}

// labelBits is the precision accounted per label/point in messages: Θ(log n)
// bits disambiguate poly(n) labels; we charge a full word.
const labelBits = 64

// Bits accounts the routing header (target point and hop counter) plus the
// payload.
func (m *RouteMsg) Bits() int {
	if m.bits != 0 {
		return m.bits
	}
	return labelBits + 8 + m.Payload.Bits()
}

// routeKinds are the names Kind reports. They are part of the trace schema
// (and dpqsim phases' output): the payload kinds that predate the
// instrumentation layer keep their historical "route/<kind>" names;
// anything else is "route/other".
var routeKinds = [...]string{"route/put", "route/get", "route/sample-root", "route/copy", "route/other"}

// kindIndex classifies the routed message by its payload, as an index into
// routeKinds.
func (m *RouteMsg) kindIndex() int {
	if m.kind != 0 {
		return int(m.kind) - 1
	}
	return payloadKind(m.Payload)
}

// payloadKind classifies a routed payload as an index into routeKinds.
func payloadKind(p sim.Message) int {
	if k, ok := p.(interface{ Kind() string }); ok {
		switch k.Kind() {
		case "put":
			return 0
		case "get":
			return 1
		case "sample-root":
			return 2
		case "copy":
			return 3
		}
	}
	return len(routeKinds) - 1
}

// Kind classifies the routed message by its payload.
func (m *RouteMsg) Kind() string { return routeKinds[m.kindIndex()] }

// hopHist accumulates the path lengths of the routes of one kind delivered
// on an overlay, in obs's log2 buckets. Atomic: in dpqd, netrun's run
// goroutine delivers while the daemon's main goroutine reads the
// histogram for its shutdown line and -metrics-out.
type hopHist struct {
	count, hops, max atomic.Int64
	hist             [obs.HistBuckets]atomic.Int64
}

// HopStats is the distribution of Path over the routes of one kind that
// were delivered on this overlay: how many hops an operation that ends in
// a routed message costs here. Bucket i of Hist counts paths of
// [2^i, 2^(i+1)) hops; bucket 0 also holds the routes delivered where they
// originated. Max is the longest path, exactly.
type HopStats struct {
	Count int64         `json:"count"`
	Hops  int64         `json:"hops"`
	Max   int64         `json:"max"`
	Hist  map[int]int64 `json:"log2Hist"`
}

// HopStats returns the per-kind path-length statistics of every route
// Forward has delivered on this overlay, omitting kinds never seen.
func (ov *Overlay) HopStats() map[string]HopStats {
	out := map[string]HopStats{}
	for i := range ov.hops {
		h := &ov.hops[i]
		if h.count.Load() == 0 {
			continue
		}
		st := HopStats{Count: h.count.Load(), Hops: h.hops.Load(), Max: h.max.Load(), Hist: map[int]int64{}}
		for b := range h.hist {
			if c := h.hist[b].Load(); c != 0 {
				st.Hist[b] = c
			}
		}
		out[routeKinds[i]] = st
	}
	return out
}

// HopSummary returns the mean and the longest path length over every
// delivered route (0 before the first).
func (ov *Overlay) HopSummary() (mean float64, longest int64) {
	var count, hops int64
	for i := range ov.hops {
		count += ov.hops[i].count.Load()
		hops += ov.hops[i].hops.Load()
		longest = max(longest, ov.hops[i].max.Load())
	}
	if count == 0 {
		return 0, 0
	}
	return float64(hops) / float64(count), longest
}

// RouteHops returns the number of de Bruijn steps used for an overlay of n
// real processes: d = max(0, ⌈log₂3n⌉ − 4). The early stop ends the final
// walk from ≈ 2^4 label gaps away.
func RouteHops(n int) int { return max(0, mathx.Log2Ceil(3*n)-4) }

// NewRoute creates a routing message toward point target in an overlay of
// n real processes. The creator should apply RouteStep locally to take the
// first hop (see Forward).
func NewRoute(n int, target float64, payload sim.Message) *RouteMsg {
	m := &RouteMsg{Target: target, Hops: RouteHops(n), Payload: payload}
	m.seal()
	return m
}

// seal computes the route's size and kind from its payload, if it has one.
func (m *RouteMsg) seal() {
	if m.Payload == nil {
		return
	}
	m.bits = labelBits + 8 + m.Payload.Bits()
	m.kind = uint8(payloadKind(m.Payload) + 1)
}

// fracAt returns frac(target·2^i) (0 ≤ i ≤ 52), read from the 53-bit
// integer image of target ∈ [0,1): scaling by 2^53 is exact and the
// conversion truncates, so the image is ⌊target·2^53⌋, and its low 53−i
// bits, shifted up by i, are the image of frac(target·2^i).
func fracAt(target float64, i int) float64 {
	return float64(uint64(target*(1<<53))<<uint(i)&(1<<53-1)) / (1 << 53)
}

// inArc reports whether point q lies on the cycle arc [lo, hi), which
// wraps through 1 when lo ≥ hi.
func inArc(lo, hi, q float64) bool {
	if lo < hi {
		return lo <= q && q < hi
	}
	return q >= lo || q < hi
}

// owns reports whether virtual node v is responsible for point q, i.e. v
// is the predecessor of q on the cycle (v ≤ q < succ(v); the maximal label
// owns [label, 1) ∪ [0, min-label)).
func owns(v *VInfo, q float64) bool { return inArc(v.Label, v.SuccLabel, q) }

// predOwns reports whether v's cycle predecessor is responsible for q.
func predOwns(v *VInfo, q float64) bool { return inArc(v.PredLabel, v.Label, q) }

// RouteStep advances m by one hop at virtual node self. It returns the
// next virtual node to forward to, or deliver=true when self is
// responsible for the target and must consume the payload.
//
// The walk ends as soon as the real process emulating self can name the
// owner from state it holds anyway, the VInfo of its own three virtual
// nodes: self owns the target (deliver); self's predecessor owns it (one
// hop, remaining de Bruijn steps cancelled); or a co-hosted virtual node
// is in one of those two positions (cross the virtual edge to it).
// Otherwise the message takes the next step of the emulation.
func RouteStep(ov *Overlay, self *VInfo, m *RouteMsg) (next sim.NodeID, deliver bool) {
	if owns(self, m.Target) {
		return sim.None, true
	}
	if predOwns(self, m.Target) {
		m.Hops = 0
		return self.Pred, false
	}
	for k := Left; k <= Right; k++ {
		if sib := &ov.V[VID(self.Host, k)]; sib != self && (owns(sib, m.Target) || predOwns(sib, m.Target)) {
			return sib.ID, false
		}
	}
	if m.Hops > 0 {
		if self.Kind == Middle {
			return deBruijnHop(ov, self, m), false
		}
		// Take the first de Bruijn step from the nearest middle node.
		return self.MidPred, false
	}
	return finalStep(self, m), false
}

// deBruijnHop spends de Bruijn steps at middle node self until the message
// leaves it: the last step crosses to the child c itself, any other jumps
// to c's MidPred, where the next step leaves from. When that is self (c is
// the right node and no other middle node lies below it) the next step is
// taken here, in the same activation. The stop rules have already been
// applied at self, and c is co-hosted, so c owning the target or its
// predecessor owning it would have sent the message to c before the step.
func deBruijnHop(ov *Overlay, self *VInfo, m *RouteMsg) sim.NodeID {
	for {
		c := deBruijnStep(self, m)
		if m.Hops == 0 {
			return c
		}
		if next := ov.V[c].MidPred; next != self.ID {
			return next
		}
	}
}

// deBruijnStep spends one de Bruijn step at middle node self, crossing to
// the child cyclically closer to u = frac(Target·2^(Hops−1)). That is the
// child the target's Hops-th bit names unless the MidPred jump to self
// wrapped pred-ward through 0; then it is the other one, in the target's half of the cycle.
// The children are antipodal, so the left one is the closer iff it lies
// within a quarter cycle of u.
func deBruijnStep(self *VInfo, m *RouteMsg) sim.NodeID {
	u := fracAt(m.Target, m.Hops-1)
	m.Hops--
	if d := math.Abs(self.Label/2 - u); d <= 0.25 || d >= 0.75 {
		return VID(self.Host, Left)
	}
	return VID(self.Host, Right)
}

// finalStep is one hop of the final linear phase: a monotone walk toward
// the owner of Target, the short way round the cycle.
func finalStep(self *VInfo, m *RouteMsg) sim.NodeID {
	if ahead := m.Target - self.Label; ahead >= 0 && ahead < 0.5 || ahead < -0.5 {
		return self.Succ
	}
	return self.Pred
}

// Forward applies RouteStep at self and either sends the message one hop
// onward (returning false) or reports that the payload must be delivered
// at self (returning true). It is the single entry point protocols use for
// both originating and relaying routed messages.
func Forward(ctx *sim.Context, ov *Overlay, self *VInfo, m *RouteMsg) (deliver bool) {
	next, done := RouteStep(ov, self, m)
	if done {
		h := &ov.hops[m.kindIndex()]
		h.count.Add(1)
		h.hops.Add(int64(m.Path))
		for p := int64(m.Path); ; {
			if cur := h.max.Load(); p <= cur || h.max.CompareAndSwap(cur, p) {
				break
			}
		}
		h.hist[obs.Log2Bucket(m.Path)].Add(1)
		return true
	}
	m.Path++
	ctx.Send(next, m)
	return false
}
