package sim

import (
	"reflect"
	"testing"

	"dpq/internal/hashutil"
)

// Tests for the struct-of-arrays engine layout: PRNG stream compatibility
// with the historical eager fork chain, dynamic membership under parallel
// stepping, and the MemStats footprint report.

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

// addHandlerScenario drives a fixed workload that grows the network while
// the engine is running: a ping pair exchanges traffic, a third node joins
// mid-run (growing the identity congestion grouping), and traffic flows to
// and from the new node. Returns everything observable.
func addHandlerScenario(t *testing.T, workers int) (Metrics, []Delivery, []int) {
	t.Helper()
	hs := newPingPair()
	eng := newSync(hs, 9, 0, nil)
	if workers > 1 {
		eng.SetParallel(workers)
	}
	var stream []Delivery
	eng.SetObserver(func(d Delivery) { stream = append(stream, d) })
	eng.Context(0).Send(1, &ping{TTL: 2})
	for r := 0; r < 3; r++ {
		eng.Step()
	}
	third := &pingNode{}
	id := eng.AddHandler(third, 7)
	eng.Context(0).Send(id, &ping{TTL: 3})
	eng.Context(id).Send(0, &ping{TTL: 2})
	for r := 0; r < 6; r++ {
		eng.Step()
	}
	counts := []int{hs[0].(*pingNode).received, hs[1].(*pingNode).received, third.received}
	return *eng.Metrics(), stream, counts
}

// TestAddHandlerAfterSetParallel: growing the network after enabling
// parallel mode must resize the per-round worker buffers — metrics,
// observer stream and protocol state must match the serial run exactly.
// (Regression: the worker buffers used to be sized from stale snapshots.)
func TestAddHandlerAfterSetParallel(t *testing.T) {
	serialMet, serialStream, serialCounts := addHandlerScenario(t, 1)
	if serialMet.Messages == 0 || serialCounts[2] == 0 {
		t.Fatalf("scenario produced no traffic to the new node: %+v %v", serialMet, serialCounts)
	}
	for _, w := range []int{2, 3} {
		met, stream, counts := addHandlerScenario(t, w)
		if !reflect.DeepEqual(serialMet, met) {
			t.Fatalf("workers=%d metrics diverge:\n serial   %+v\n parallel %+v", w, serialMet, met)
		}
		if !reflect.DeepEqual(serialStream, stream) {
			t.Fatalf("workers=%d observer stream diverges", w)
		}
		if !reflect.DeepEqual(serialCounts, counts) {
			t.Fatalf("workers=%d received counts %v, want %v", w, counts, serialCounts)
		}
	}
}

// TestAddHandlerAfterSetParallelGrowsGroups: same, with a custom group
// function whose range grows past the initial group count — the worker
// deliveries/roundLoad buffers must follow nGrp, not the SetParallel-time
// snapshot.
func TestAddHandlerAfterSetParallelGrowsGroups(t *testing.T) {
	run := func(workers int) (Metrics, []int64) {
		hs := []Handler{&pingNode{}, &pingNode{}}
		eng := newSync(hs, 3, 2, func(id NodeID) int { return int(id) })
		if workers > 1 {
			eng.SetParallel(workers)
		}
		eng.Context(0).Send(1, &ping{TTL: 1})
		eng.Step()
		id := eng.AddHandler(&pingNode{}, 4)
		eng.Context(0).Send(id, &ping{TTL: 2})
		for r := 0; r < 4; r++ {
			eng.Step()
		}
		return *eng.Metrics(), eng.Metrics().Deliveries
	}
	serialMet, serialDel := run(1)
	if len(serialDel) != 3 || serialDel[2] == 0 {
		t.Fatalf("new group saw no deliveries: %v", serialDel)
	}
	for _, w := range []int{2, 3} {
		met, _ := run(w)
		if !reflect.DeepEqual(serialMet, met) {
			t.Fatalf("workers=%d metrics diverge:\n serial   %+v\n parallel %+v", w, serialMet, met)
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
