package skeap

// The quiet anchor: batches start when there is work, not on every
// activation of the anchor.
//
// In continuous mode the anchor starts iteration s+1 as soon as it has
// scattered iteration s — unless s carried nothing. Then the anchor stops
// starting batches and says so in that batch's down wave: every node's
// share of the assignment is the QuietAssign marker, and a node that has
// applied it is quiet until the next start wave reaches it. A quiet node
// that holds a buffered operation — one buffered after its snapshot of the
// empty batch, one a reset re-buffered, or one injected later — sends one
// WakeMsg to its parent. A quiet parent forwards the first wake it sees and
// drops the rest, so each node sends at most one wake per quiet epoch, and
// the anchor answers the first one that reaches it by starting the next
// batch, whose start wave ends the epoch at every node.
//
// Safety: sequential consistency rests on the order in which the anchor
// assigns batches (Theorem 3.2), not on what starts a batch, so that order
// is untouched. No operation is stranded: a node's buffer is checked when
// the quiet down wave reaches it, on every later injection and after a
// reset, and a reset also takes the anchor out of its quiet state (nodes
// whose copy of the quiet down wave was suppressed by the reset floor never
// went quiet, so they rely on the anchor's next start wave).
//
// Every node is passive (sim.PassiveHandler) and asks the engine for the
// activations it needs (sim.WakeableHandler): the anchor when it may start
// the next iteration or has a reset to broadcast, and a quiet node when an
// operation is injected at it. It gets each in the round in which an
// engine that activates every node every round would act on it, so both
// run the same schedule (TestSparseWakeMatchesDense), and an idle network
// is activated not at all.

import (
	"dpq/internal/aggtree"
	"dpq/internal/ldb"
	"dpq/internal/sim"
	"dpq/internal/wire"
)

// QuietAssign is the down value of a batch that carried nothing when the
// anchor runs continuously: every node's share of the (empty) assignment,
// telling it that the anchor starts no further batch until it is woken.
type QuietAssign struct{}

// Bits accounts the header of an empty assignment.
func (*QuietAssign) Bits() int { return 16 }

// Kind names the message for instrumentation.
func (*QuietAssign) Kind() string { return "skeap/quiet" }

// WakeMsg asks a quiet node's parent, and through it the anchor, to start
// the next batch.
type WakeMsg struct{}

// Bits accounts a small header.
func (*WakeMsg) Bits() int { return 16 }

// Kind names the message for instrumentation.
func (*WakeMsg) Kind() string { return "skeap/wake" }

// quietDown is the one QuietAssign every quiet batch scatters (messages are
// immutable once sent, so all nodes share it).
var quietDown = &QuietAssign{}

func init() {
	wire.Register("skeap/quiet", &QuietAssign{},
		func(*wire.Writer, sim.Message) {},
		func(*wire.Reader) sim.Message { return quietDown },
		&QuietAssign{},
	)
	wire.Register("skeap/wake", &WakeMsg{},
		func(*wire.Writer, sim.Message) {},
		func(*wire.Reader) sim.Message { return &WakeMsg{} },
		&WakeMsg{},
	)
}

// splitQuiet hands the quiet marker to the node and every child.
func splitQuiet(kids []aggtree.KidValue) (aggtree.Value, []aggtree.Value) {
	parts := make([]aggtree.Value, len(kids))
	for i := range parts {
		parts[i] = quietDown
	}
	return quietDown, parts
}

// goQuiet applies the quiet down wave at a node: the quiet epoch begins,
// and an operation buffered since the node's snapshot wakes the anchor.
func (n *Node) goQuiet(ctx *sim.Context, self *ldb.VInfo) {
	n.mu.Lock()
	n.quiet = true
	n.mu.Unlock()
	n.maybeWake(ctx, self)
}

// maybeWake sends the node's one wake of the quiet epoch when it holds a
// buffered operation. quiet and woke change only on the handler goroutine,
// so the fast path reads them without the lock.
func (n *Node) maybeWake(ctx *sim.Context, self *ldb.VInfo) {
	if !n.quiet || n.woke {
		return
	}
	n.mu.Lock()
	due := len(n.buffer) > 0
	n.woke = due
	n.mu.Unlock()
	if due {
		n.wakeUp(ctx, self)
	}
}

// handleWake forwards a child's wake towards the anchor, once per epoch; a
// node whose epoch has ended (a start wave passed it) drops it, since the
// batch the wake asks for is already on its way.
func (n *Node) handleWake(ctx *sim.Context, self *ldb.VInfo) {
	if !n.quiet || n.woke {
		return
	}
	n.mu.Lock()
	n.woke = true
	n.mu.Unlock()
	n.wakeUp(ctx, self)
}

// wakeUp passes a wake one hop up; at the anchor it starts the next batch.
func (n *Node) wakeUp(ctx *sim.Context, self *ldb.VInfo) {
	if self.Parent != sim.None {
		ctx.Send(self.Parent, &WakeMsg{})
		return
	}
	if n.heap.autoRepeat && !n.inFlight {
		n.startIteration(ctx, self)
	}
}

// SetWake implements sim.WakeableHandler. The anchor asks at once for the
// activation that starts the first iteration.
func (nh *nodeHandler) SetWake(wake func(sim.NodeID)) {
	h := nh.n.heap
	h.wake = wake
	if nh.id == h.ov.Anchor {
		wake(nh.id)
	}
}
