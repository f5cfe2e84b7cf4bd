package ldb

import (
	"math"

	"dpq/internal/mathx"
	"dpq/internal/sim"
)

// RouteMsg carries a payload toward the virtual node responsible for
// Target using the continuous–discrete de Bruijn emulation of Appendix A.
//
// Routing alternates two local moves until Hops de Bruijn steps are spent:
//
//  1. at a middle node with label m, the next target bit b is consumed and
//     the message crosses the virtual edge to the host's left (b=0, label
//     exactly m/2) or right (b=1, label exactly (m+1)/2) node — the de
//     Bruijn step p ← (p+b)/2 on actual labels;
//  2. at a non-middle node the message walks pred-ward to the nearest
//     middle node (O(1) expected linear hops, since middle labels are a
//     constant fraction of the cycle).
//
// After the last de Bruijn step the current label equals the target's
// d-bit prefix up to an O(log n / n) w.h.p. drift, and a final monotone
// linear walk reaches the responsible node (the predecessor of Target).
// Total: O(log n) hops w.h.p. (Lemma A.2).
type RouteMsg struct {
	Target  float64     // destination point in [0,1)
	Hops    int         // remaining de Bruijn steps
	Payload sim.Message // delivered at the responsible node
	Path    int         // hops taken so far (for dilation experiments)
}

// labelBits is the precision accounted per label/point in messages: Θ(log n)
// bits disambiguate poly(n) labels; we charge a full word.
const labelBits = 64

// Bits accounts the routing header (target point and hop counter) plus the
// payload.
func (m *RouteMsg) Bits() int { return labelBits + 8 + m.Payload.Bits() }

// Kind classifies the routed message by its payload. The names are part of
// the trace schema (and dpqsim phases' output): the payload kinds that
// predate the instrumentation layer keep their historical "route/<kind>"
// names; anything else is "route/other".
func (m *RouteMsg) Kind() string {
	if k, ok := m.Payload.(interface{ Kind() string }); ok {
		switch kind := k.Kind(); kind {
		case "put", "get", "sample-root", "copy":
			return "route/" + kind
		}
	}
	return "route/other"
}

// RouteHops returns the number of de Bruijn steps used for an overlay of n
// real processes: d ≈ log₂(3n) puts the point within 2^-d of the target;
// two extra steps shorten the final walk.
func RouteHops(n int) int { return mathx.Log2Ceil(3*n) + 2 }

// NewRoute creates a routing message toward point target in an overlay of
// n real processes. The creator should apply RouteStep locally to take the
// first hop (see Forward).
func NewRoute(n int, target float64, payload sim.Message) *RouteMsg {
	return &RouteMsg{Target: target, Hops: RouteHops(n), Payload: payload}
}

// bitAt returns the i-th most significant bit of target's binary expansion
// (i ≥ 1).
func bitAt(target float64, i int) int {
	x := target * math.Pow(2, float64(i))
	return int(math.Floor(x)) & 1
}

// owns reports whether virtual node v is responsible for point q, i.e. v
// is the predecessor of q on the cycle (v ≤ q < succ(v), wrapping at the
// maximal label).
func owns(v *VInfo, q float64) bool {
	if v.Label < v.SuccLabel {
		return v.Label <= q && q < v.SuccLabel
	}
	// v holds the maximal label: it owns [label, 1) ∪ [0, min-label).
	return q >= v.Label || q < v.SuccLabel
}

// RouteStep advances m by one hop at virtual node self. It returns the
// next virtual node to forward to, or deliver=true when self is
// responsible for the target and must consume the payload.
func RouteStep(self *VInfo, m *RouteMsg) (next sim.NodeID, deliver bool) {
	if m.Hops > 0 {
		if self.Kind == Middle {
			b := bitAt(m.Target, m.Hops)
			m.Hops--
			if b == 0 {
				return VID(self.Host, Left), false
			}
			return VID(self.Host, Right), false
		}
		// Walk pred-ward to the nearest middle node to take the next de
		// Bruijn step from.
		return self.Pred, false
	}
	// Final linear phase: monotone walk to the owner of Target.
	if owns(self, m.Target) {
		return sim.None, true
	}
	if m.Target > self.Label {
		return self.Succ, false
	}
	return self.Pred, false
}

// Forward applies RouteStep at self and either sends the message one hop
// onward (returning false) or reports that the payload must be delivered
// at self (returning true). It is the single entry point protocols use for
// both originating and relaying routed messages.
func Forward(ctx *sim.Context, self *VInfo, m *RouteMsg) (deliver bool) {
	next, done := RouteStep(self, m)
	if done {
		return true
	}
	m.Path++
	ctx.Send(next, m)
	return false
}
