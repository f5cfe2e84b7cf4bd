package skeap

import (
	"dpq/internal/dht"
	"dpq/internal/ldb"
	"dpq/internal/sim"
)

// Membership changes (§1.4(4)): processes may join and leave without
// violating the heap semantics or losing data. The message-level cost of
// restructuring is measured by ldb.RunBatch (experiment E13); this file
// performs the state transfer a join/leave entails on a live heap:
//
//   - every stored element moves to the node responsible for its key
//     under the new topology (on the real network this is the O(m/n)
//     hand-over between cycle neighbours the paper's lazy processing
//     amortizes);
//   - if the anchor role moves (the minimal label changed), the anchor's
//     interval bookkeeping moves with it.
//
// Changes are applied between iterations: the caller must have drained
// all operations (Done) with auto-repeat disabled and an idle network.

// AddHost joins a new process with the given identifier to a quiescent
// heap, returning its host slot. eng must be the heap's engine.
func (h *Heap) AddHost(eng *sim.SyncEngine, id uint64) int {
	h.requireQuiescent(eng)
	oldAnchor := h.ov.Anchor
	host := h.ov.AddHost(id)
	// Three fresh virtual nodes join the simulation.
	for k := 0; k < 3; k++ {
		n := &Node{
			heap:   h,
			runner: h.protos.Runner(),
			store:  dht.New(h.ov),
		}
		h.nodes = append(h.nodes, n)
		got := eng.AddHandler(&nodeHandler{n: n, id: sim.NodeID(len(h.nodes) - 1)}, h.cfg.Seed+uint64(len(h.nodes)))
		if int(got) != len(h.nodes)-1 {
			panic("skeap: engine and heap node ids diverged")
		}
	}
	h.cfg.N++
	h.migrate(oldAnchor)
	return host
}

// RemoveHost makes a process leave a quiescent heap. Its stored elements
// are handed over to the nodes responsible under the new topology.
func (h *Heap) RemoveHost(eng *sim.SyncEngine, host int) {
	h.requireQuiescent(eng)
	mid := h.nodes[ldb.VID(host, ldb.Middle)]
	mid.mu.Lock()
	buffered := len(mid.buffer)
	mid.mu.Unlock()
	if buffered > 0 {
		panic("skeap: leaving host still has buffered operations")
	}
	oldAnchor := h.ov.Anchor
	h.ov.RemoveHost(host)
	h.cfg.N--
	h.migrate(oldAnchor)
}

func (h *Heap) requireQuiescent(eng *sim.SyncEngine) {
	if !h.Done() {
		panic("skeap: membership change while operations are outstanding")
	}
	if eng.Pending() {
		panic("skeap: membership change while messages are in flight")
	}
	if h.autoRepeat {
		panic("skeap: disable auto-repeat before membership changes")
	}
	if h.nodes[h.ov.Anchor].inFlight {
		panic("skeap: membership change while an iteration is in flight")
	}
	for _, n := range h.nodes {
		if n.store.PendingCount() > 0 {
			panic("skeap: membership change with parked DHT requests")
		}
	}
}

// migrate redistributes every stored element to its new responsible node
// (dht.Migrate, which counts the elements that changed hands for E20) and
// relocates the anchor state if the anchor role moved.
func (h *Heap) migrate(oldAnchor sim.NodeID) {
	h.lastMigrated = dht.Migrate(h.ov, len(h.nodes), func(i sim.NodeID) *dht.DHT { return h.nodes[i].store })
	// Anchor hand-over.
	if h.ov.Anchor != oldAnchor {
		old := h.nodes[oldAnchor]
		neu := h.nodes[h.ov.Anchor]
		if old.anchorState == nil {
			panic("skeap: old anchor had no state")
		}
		neu.anchorState = old.anchorState
		neu.nextSeq = old.nextSeq
		neu.iterations = old.iterations
		old.anchorState = nil
	}
}
