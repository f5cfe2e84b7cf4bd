package sim

import (
	"testing"

	"dpq/internal/hashutil"
)

// Tests for the struct-of-arrays engine layout: PRNG stream compatibility
// with the historical eager fork chain and the MemStats footprint report.

// TestSyncPRNGStreamsMatchEagerForkChain: the flat PRNG array is seeded by
// the O(1) ForkSeedAt derivation; every node's stream must be identical to
// the chain the engine used to materialize (fork a root NewRand(seed)
// once per node, in node order).
func TestSyncPRNGStreamsMatchEagerForkChain(t *testing.T) {
	const n = 64
	const seed = 12345
	handlers := make([]Handler, n)
	for i := range handlers {
		handlers[i] = &pingNode{}
	}
	eng := newSync(handlers, seed, 0, nil)
	root := hashutil.NewRand(seed)
	for i := 0; i < n; i++ {
		want := root.Fork()
		got := eng.Context(NodeID(i)).Rand()
		for k := 0; k < 8; k++ {
			w, g := want.Uint64(), got.Uint64()
			if w != g {
				t.Fatalf("node %d draw %d: flat stream %x, eager fork chain %x", i, k, g, w)
			}
		}
	}
}

// TestMemStatsFootprint: the engine's own per-node footprint must stay in
// the struct-of-arrays regime — tens of bytes per idle node, not the
// hundreds the per-node-slice layout cost — and the report must see the
// arenas grow with traffic.
func TestMemStatsFootprint(t *testing.T) {
	const n = 4096
	handlers := make([]Handler, n)
	for i := range handlers {
		handlers[i] = &pingNode{}
	}
	eng := newSync(handlers, 1, 0, nil)
	idle := eng.MemStats(false)
	if idle.Nodes != n {
		t.Fatalf("nodes=%d", idle.Nodes)
	}
	if per := idle.EngineBytesPerNode(); per <= 0 || per > 128 {
		t.Fatalf("idle engine footprint %.1f B/node, want (0,128]", per)
	}
	for i := 0; i < n; i++ {
		eng.Context(NodeID(i)).Send(NodeID((i+1)%n), &ping{TTL: 1})
	}
	eng.Step()
	loaded := eng.MemStats(false)
	if loaded.EngineBytes <= idle.EngineBytes {
		t.Fatalf("arena growth not visible: idle %d, loaded %d", idle.EngineBytes, loaded.EngineBytes)
	}
	if loaded.HeapBytes == 0 {
		t.Fatalf("heap bytes not populated")
	}
}
