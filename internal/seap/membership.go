package seap

import (
	"dpq/internal/dht"
	"dpq/internal/ldb"
	"dpq/internal/sim"
)

// Membership changes (§1.4(4)) for Seap, mirroring skeap's: applied at
// quiescent points between cycles, with every stored element handed over
// to the node responsible under the new topology. Seap's anchor state
// (m, value counter, cycle) lives on the Heap driver, so only the DHT
// shards move; the embedded KSelect selector grows alongside the node set.

// AddHost joins a new process to a quiescent heap and returns its host
// slot. eng must be the heap's engine.
func (h *Heap) AddHost(eng *sim.SyncEngine, id uint64) int {
	h.requireQuiescent(eng)
	host := h.ov.AddHost(id)
	for k := 0; k < 3; k++ {
		n := &Node{
			heap:   h,
			runner: h.protos.Runner(),
			store:  dht.New(h.ov),
		}
		h.nodes = append(h.nodes, n)
		h.selector.AddNode()
		got := eng.AddHandler(&nodeHandler{n: n, id: sim.NodeID(len(h.nodes) - 1)}, h.cfg.Seed+uint64(len(h.nodes)))
		if int(got) != len(h.nodes)-1 {
			panic("seap: engine and heap node ids diverged")
		}
	}
	h.cfg.N++
	h.migrate()
	eng.RefreshActive()
	return host
}

// RemoveHost makes a process leave a quiescent heap, handing its stored
// elements over to the nodes responsible under the new topology.
func (h *Heap) RemoveHost(eng *sim.SyncEngine, host int) {
	h.requireQuiescent(eng)
	mid := h.nodes[ldb.VID(host, ldb.Middle)]
	mid.mu.Lock()
	buffered := len(mid.insBuf) + len(mid.delBuf) + len(mid.seqBuf)
	mid.mu.Unlock()
	if buffered > 0 {
		panic("seap: leaving host still has buffered operations")
	}
	h.ov.RemoveHost(host)
	h.cfg.N--
	h.migrate()
	eng.RefreshActive()
}

func (h *Heap) requireQuiescent(eng *sim.SyncEngine) {
	if !h.Done() {
		panic("seap: membership change while operations are outstanding")
	}
	if eng.Pending() {
		panic("seap: membership change while messages are in flight")
	}
	if h.autoRepeat {
		panic("seap: disable auto-repeat before membership changes")
	}
	if h.inFlight {
		panic("seap: membership change while a cycle is in flight")
	}
	for _, n := range h.nodes {
		if n.store.PendingCount() > 0 || n.puts != (owed{}) || n.gets != (owed{}) {
			panic("seap: membership change with outstanding DHT requests")
		}
	}
}

// migrate redistributes every stored element to its new responsible node,
// recording how many changed hands (experiment E20).
func (h *Heap) migrate() {
	h.lastMigrated = dht.Migrate(h.ov, len(h.nodes), func(i sim.NodeID) *dht.DHT { return h.nodes[i].store })
}

// MigratedLastChange returns how many stored elements changed hosts during
// the most recent membership change.
func (h *Heap) MigratedLastChange() int { return h.lastMigrated }
