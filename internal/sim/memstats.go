package sim

import (
	"fmt"
	"runtime"
	"unsafe"
)

// MemStats reports a simulation's per-node memory footprint — the number
// the million-node scaling work budgets against (ARCHITECTURE.md §14).
// EngineBytes counts only what the SyncEngine itself owns (flat context
// and PRNG arrays, message arenas, the destination set, inbox and active
// lists); HeapBytes is the whole process's live
// heap, which additionally covers protocol state (skeap/seap nodes, DHT
// stores, overlay tables). HeapBytes is the honest
// capacity-planning figure; EngineBytes isolates the substrate's share.
type MemStats struct {
	Nodes       int
	EngineBytes int64
	HeapBytes   uint64
}

// EngineBytesPerNode is the engine-owned footprint per simulated node.
func (m MemStats) EngineBytesPerNode() float64 {
	if m.Nodes == 0 {
		return 0
	}
	return float64(m.EngineBytes) / float64(m.Nodes)
}

// HeapBytesPerNode is the live process heap per simulated node.
func (m MemStats) HeapBytesPerNode() float64 {
	if m.Nodes == 0 {
		return 0
	}
	return float64(m.HeapBytes) / float64(m.Nodes)
}

func (m MemStats) String() string {
	return fmt.Sprintf("nodes=%d engineB/node=%.1f heapB/node=%.1f",
		m.Nodes, m.EngineBytesPerNode(), m.HeapBytesPerNode())
}

// MemStats measures the engine's memory footprint. When gc is true a full
// garbage collection runs first so HeapBytes reports live data only —
// accurate but expensive; pass false for a cheap between-rounds reading
// that may include garbage awaiting collection.
func (e *SyncEngine) MemStats(gc bool) MemStats {
	var eb int64
	eb += int64(cap(e.contexts)) * int64(unsafe.Sizeof(Context{}))
	eb += int64(cap(e.rands)) * 8
	eb += int64(cap(e.pend)) * int64(unsafe.Sizeof(envelope{}))
	eb += int64(cap(e.box)) * int64(unsafe.Sizeof(boxedEnv{}))
	eb += int64(cap(e.cnt)) * 4
	eb += int64(cap(e.dests)) * 8
	eb += int64(cap(e.inbox)) * int64(unsafe.Sizeof(inboxRange{}))
	eb += int64(cap(e.active)) * int64(unsafe.Sizeof(NodeID(0)))
	eb += int64(cap(e.roundLoad)) * 8
	eb += int64(cap(e.metrics.Deliveries)) * 8
	if gc {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemStats{Nodes: len(e.handlers), EngineBytes: eb, HeapBytes: ms.HeapAlloc}
}
