package ldb

import (
	"dpq/internal/hashutil"
	"dpq/internal/mathx"
	"dpq/internal/sim"
)

// This file measures the message-level cost of membership changes
// (§1.4(4)): joining or leaving takes a constant number of rounds for the
// node itself (lazy processing) while the topology restoration for a batch
// of Join/Leave operations completes in O(log n) rounds w.h.p. A join must
// splice three virtual nodes into the cycle, each located by routing to the
// responsible node of its label; a leave notifies the cycle neighbours of
// its three virtual nodes. Either way a middle node that comes or goes
// hands the MidPred edge over to the non-middle run succ-ward of it, up to
// the next middle node: one MidPredMsg per node of the run (2 on average,
// O(log n) w.h.p.). A joining left or right node changes no one's MidPred
// and learns its own from its splice point.

// SpliceMsg asks the responsible node of a new virtual node's label to
// splice the newcomer in between itself and its successor.
type SpliceMsg struct {
	NewLabel float64
	NewHost  uint64
}

// Bits: one label plus one identifier.
func (m *SpliceMsg) Bits() int { return 2 * labelBits }

// Kind names the message for instrumentation.
func (m *SpliceMsg) Kind() string { return "ldb/splice" }

// LeaveMsg notifies a cycle neighbour that the sender's virtual node is
// departing and carries the replacement link.
type LeaveMsg struct {
	Replacement sim.NodeID
}

// Bits: one node reference.
func (m *LeaveMsg) Bits() int { return labelBits }

// Kind names the message for instrumentation.
func (m *LeaveMsg) Kind() string { return "ldb/leave" }

// MidPredMsg passes a MidPred hand-off along a non-middle run, succ-ward:
// the receiver's nearest middle node pred-ward is now Mid (a joining
// middle node, or a leaving one's own MidPred).
type MidPredMsg struct {
	Mid sim.NodeID
}

// Bits: one node reference.
func (m *MidPredMsg) Bits() int { return labelBits }

// Kind names the message for instrumentation.
func (m *MidPredMsg) Kind() string { return "ldb/midpred" }

// dynNode relays routed splice requests and MidPred hand-offs, and counts
// completed splices, leave notifications and hand-offs.
type dynNode struct {
	ov         *Overlay
	done, want *int
}

func (d *dynNode) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	self := d.ov.Info(ctx.ID())
	switch m := msg.(type) {
	case *RouteMsg:
		if Forward(ctx, d.ov, self, m) {
			// Splice point found: in a full implementation the responsible
			// node rewires succ pointers here; the simulation applies the
			// structural change afterwards and only measures delivery. A
			// joining middle node (its label is the hash of its identifier)
			// lands just succ-ward of self and takes over the run after it.
			*d.done++
			if s := m.Payload.(*SpliceMsg); s.NewLabel == d.ov.hasher.Unit(s.NewHost) {
				d.handOff(ctx, self, sim.None)
			}
		}
	case *LeaveMsg:
		*d.done++
	case *MidPredMsg:
		*d.done++
		d.handOff(ctx, self, m.Mid)
	}
}

// handOff sends a MidPredMsg to self's successor unless that is a middle
// node, which ends the run. mid is the new MidPred, sim.None for a joining
// node that exists only after the batch.
func (d *dynNode) handOff(ctx *sim.Context, self *VInfo, mid sim.NodeID) {
	if KindOf(self.Succ) != Middle {
		*d.want++
		ctx.Send(self.Succ, &MidPredMsg{Mid: mid})
	}
}

func (d *dynNode) Activate(*sim.Context) {}
func (d *dynNode) Passive() bool         { return true }

// JoinLeaveResult reports the cost of restructuring after a batch of
// membership changes.
type JoinLeaveResult struct {
	Rounds   int // rounds until every splice/leave notification arrived
	Messages int64
}

// RunBatch performs a batch of joins (new process identifiers) and leaves
// (host slots) against the overlay: it measures the rounds needed to route
// every splice request, leave notification and MidPred hand-off on the
// *current* topology, then applies the membership changes structurally.
// The caller can verify restoration via IsTree.
func RunBatch(ov *Overlay, joins []uint64, leaves []int, seed uint64) JoinLeaveResult {
	done := 0
	want := 3*len(joins) + 6*len(leaves)
	handlers := make([]sim.Handler, ov.NumVirtual())
	for i := range handlers {
		handlers[i] = &dynNode{ov: ov, done: &done, want: &want}
	}
	groups, group := ov.Group()
	eng := sim.Build(sim.Spec{Handlers: handlers, Seed: seed, Groups: groups, Group: group}).(*sim.SyncEngine)
	rnd := hashutil.NewRand(seed)

	// Inject joins: each newcomer contacts a random bootstrap host, whose
	// middle virtual node originates the three splice routes.
	for _, id := range joins {
		boot := rnd.Intn(len(ov.active))
		for !ov.active[boot] {
			boot = rnd.Intn(len(ov.active))
		}
		src := VID(boot, Middle)
		m := ov.hasher.Unit(id)
		for _, lbl := range []float64{m / 2, m, (m + 1) / 2} {
			route := NewRoute(ov.N, lbl, &SpliceMsg{NewLabel: lbl, NewHost: id})
			if Forward(eng.Context(src), ov, ov.Info(src), route) {
				done++
			}
		}
	}
	// Inject leaves: each departing virtual node notifies pred and succ,
	// and the middle one hands its own MidPred to the run after it.
	for _, host := range leaves {
		for _, k := range []Kind{Left, Middle, Right} {
			v := ov.Info(VID(host, k))
			eng.Context(v.ID).Send(v.Pred, &LeaveMsg{Replacement: v.Succ})
			eng.Context(v.ID).Send(v.Succ, &LeaveMsg{Replacement: v.Pred})
		}
		mid := ov.Info(VID(host, Middle))
		handlers[mid.ID].(*dynNode).handOff(eng.Context(mid.ID), mid, mid.MidPred)
	}

	eng.RunUntil(func() bool { return done >= want }, 64*(mathx.Log2Ceil(ov.N)+4))

	// Apply the membership changes structurally.
	for _, host := range leaves {
		ov.RemoveHost(host)
	}
	for _, id := range joins {
		ov.AddHost(id)
	}
	return JoinLeaveResult{Rounds: eng.Metrics().Rounds, Messages: eng.Metrics().Messages}
}
