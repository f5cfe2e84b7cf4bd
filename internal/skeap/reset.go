package skeap

// Partial-failure reset (the serving layer's restart reconciliation, PR 8).
//
// When a daemon of a netrun deployment crashes, every protocol artifact it
// held evaporates: buffered operations, gather states, snapshotted batches
// awaiting assignment, and — worst — the DHT cells resident at its virtual
// nodes. Surviving nodes cannot tell which occupied positions lost their
// cells, and a DeleteMin assigned such a position would park at an empty
// cell forever (§3.2.4 Gets wait for their Put). The reset therefore
// abandons the *entire* occupied position range and rebuilds:
//
//  1. the anchor picks a floor (its next iteration seq) and broadcasts
//     ResetMsg{Floor} to every virtual node;
//  2. every node aborts aggtree instances below the floor (late frames of
//     those instances are suppressed), re-buffers the operations of its
//     not-yet-applied snapshots, and aborts outstanding Phase-4 fetches,
//     re-buffering their DeleteMin ops;
//  3. the anchor empties its priority intervals at the high-water mark
//     (batch.AnchorState.Abandon) — positions are never reused, so cells
//     that survived the crash become unreachable orphans rather than
//     double-delivery sources;
//  4. the serving layer re-injects, per owner, every durably pending
//     element that no live daemon holds a lease for (see serve.Reconciler)
//     — those re-inserts repopulate the heap at fresh positions.
//
// The reset is NOT part of the paper's protocol; it is the engineering
// bridge the Skueue line ([FSS18a]) justifies: a crashed peer contributes a
// bounded set of in-flight rounds, and abandoning them wholesale preserves
// sequential consistency because every abandoned operation either re-enters
// the serialization later (re-buffered / re-injected) or was never
// acknowledged to a client.

import (
	"sort"

	"dpq/internal/sim"
	"dpq/internal/wire"
)

// ResetMsg orders a virtual node to abandon every batch iteration below
// Floor. Broadcast by the anchor when the serving layer reports a peer
// daemon rejoined after a crash.
type ResetMsg struct {
	Floor uint64
}

// Bits accounts a small header plus the floor.
func (m *ResetMsg) Bits() int { return 16 + 64 }

// Kind names the message for instrumentation.
func (m *ResetMsg) Kind() string { return "skeap/reset" }

func init() {
	wire.Register("skeap/reset", &ResetMsg{},
		func(w *wire.Writer, msg sim.Message) {
			w.U64(msg.(*ResetMsg).Floor)
		},
		func(r *wire.Reader) sim.Message {
			return &ResetMsg{Floor: r.U64()}
		},
		&ResetMsg{Floor: 7},
	)
}

// InjectReset requests a cluster-wide iteration reset. It must be called on
// the process that owns the anchor node; the anchor broadcasts the reset on
// its next activation, which it asks the engine for. Safe from any
// goroutine.
func (h *Heap) InjectReset() {
	a := h.nodes[h.ov.Anchor]
	a.mu.Lock()
	a.resetPending = true
	a.mu.Unlock()
	h.wakeAnchor()
}

// LastResetFloor returns the highest reset floor any local node has
// applied (0 before the first reset). Drivers read it after a rejoin to
// order lease scans and re-injection behind the reset.
func (h *Heap) LastResetFloor() uint64 { return h.resetFloor.Load() }

// ResetSignal returns a channel that is closed when a local node next
// applies a reset. Take the channel before reading LastResetFloor: a reset
// raises the floor before it closes the channel, so a waiter that finds
// the floor unchanged cannot miss the reset that changes it.
func (h *Heap) ResetSignal() <-chan struct{} {
	h.resetMu.Lock()
	defer h.resetMu.Unlock()
	if h.resetCh == nil {
		h.resetCh = make(chan struct{})
	}
	return h.resetCh
}

// Resets returns how many ResetMsgs local nodes have applied.
func (h *Heap) Resets() int64 { return h.resetApplied.Load() }

// broadcastReset runs at the anchor: it picks the floor, tells every other
// node, and applies the reset to itself.
func (n *Node) broadcastReset(ctx *sim.Context, self sim.NodeID) {
	floor := n.nextSeq
	for id := range n.heap.nodes {
		if sim.NodeID(id) != self {
			ctx.Send(sim.NodeID(id), &ResetMsg{Floor: floor})
		}
	}
	n.applyReset(floor)
}

// applyReset abandons every iteration below floor at this node: aggtree
// instances are aborted, unapplied snapshots and in-flight Phase-4 fetches
// are re-buffered in front of the current buffer, and (at the anchor) the
// occupied position intervals are emptied at their high-water mark.
func (n *Node) applyReset(floor uint64) {
	n.runner.AbortBelow(tagBatch, floor)

	var reops []pendingOp
	seqs := make([]uint64, 0, len(n.snapshots))
	for seq := range n.snapshots {
		if seq < floor {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		for _, s := range n.snapshots[seq] {
			reops = append(reops, s.op)
		}
		delete(n.snapshots, seq)
	}

	reqs := make([]uint64, 0, len(n.pendingGets))
	for req, pg := range n.pendingGets {
		if pg.seq < floor && !pg.aborted {
			reqs = append(reqs, req)
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, req := range reqs {
		pg := n.pendingGets[req]
		reops = append(reops, pg.op)
		pg.aborted = true
		n.pendingGets[req] = pg
	}

	n.mu.Lock()
	n.buffer = append(reops, n.buffer...)
	n.mu.Unlock()

	if n.anchorState != nil && n.nextSeq <= floor {
		n.anchorState.Abandon()
		n.inFlight = false
	}
	if n.anchorState != nil {
		// A node whose copy of the quiet down wave fell below the floor
		// never went quiet and cannot wake the anchor: the anchor leaves its
		// quiet epoch and starts the next iteration itself.
		n.mu.Lock()
		n.quiet = false
		n.mu.Unlock()
	}

	h := n.heap
	for {
		cur := h.resetFloor.Load()
		if floor <= cur || h.resetFloor.CompareAndSwap(cur, floor) {
			break
		}
	}
	h.resetApplied.Add(1)
	h.resetMu.Lock()
	if h.resetCh != nil {
		close(h.resetCh)
		h.resetCh = nil
	}
	h.resetMu.Unlock()
}
