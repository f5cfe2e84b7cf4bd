package integration

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/prio"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/skeap"
)

// Larger-scale end-to-end runs, skipped under -short.

func TestSkeapAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const n = 512
	h := skeap.New(skeap.Config{N: n, P: 4, Seed: 1001})
	eng := h.NewSyncEngine()
	rnd := hashutil.NewRand(1002)
	id := prio.ElemID(1)
	for i := 0; i < 4*n; i++ {
		host := rnd.Intn(n)
		if rnd.Bool(0.6) {
			h.InjectInsert(host, id, rnd.Intn(4), "")
			id++
		} else {
			h.InjectDelete(host)
		}
	}
	if !eng.RunUntil(h.Done, maxRounds(n)) {
		t.Fatalf("n=%d run incomplete: %d/%d", n, h.Trace().DoneCount(), h.Trace().Len())
	}
	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics at scale:\n%s", rep.Error())
	}
}

func TestSeapAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const n = 256
	h := seap.New(seap.Config{N: n, PrioBound: 1 << 24, Seed: 1010})
	eng := h.NewSyncEngine()
	rnd := hashutil.NewRand(1011)
	id := prio.ElemID(1)
	for i := 0; i < 4*n; i++ {
		host := rnd.Intn(n)
		if rnd.Bool(0.6) {
			h.InjectInsert(host, id, rnd.Uint64n(1<<24)+1, "")
			id++
		} else {
			h.InjectDelete(host)
		}
	}
	if !eng.RunUntil(h.Done, maxRounds(n)) {
		t.Fatalf("n=%d run incomplete: %d/%d", n, h.Trace().DoneCount(), h.Trace().Len())
	}
	if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics at scale:\n%s", rep.Error())
	}
}

func TestDeepHeapManyIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	// A heap that grows to thousands of elements and drains completely.
	const n = 32
	h := skeap.New(skeap.Config{N: n, P: 3, Seed: 1020})
	eng := h.NewSyncEngine()
	rnd := hashutil.NewRand(1021)
	const m = 3000
	for i := 0; i < m; i++ {
		h.InjectInsert(rnd.Intn(n), prio.ElemID(i+1), rnd.Intn(3), "")
	}
	if !eng.RunUntil(h.Done, maxRounds(n)) {
		t.Fatal("grow incomplete")
	}
	for i := 0; i < m; i++ {
		h.InjectDelete(rnd.Intn(n))
	}
	if !eng.RunUntil(h.Done, maxRounds(n)) {
		t.Fatal("drain incomplete")
	}
	bottoms := 0
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && op.Result.Nil() {
			bottoms++
		}
	}
	if bottoms != 0 {
		t.Fatalf("%d deletes returned ⊥ on a full heap", bottoms)
	}
	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("deep heap semantics:\n%s", rep.Error())
	}
}

// TestScaleFootprint builds a quarter-million-host Skeap (786k virtual
// nodes), runs a small bounded workload on the worker-pool engine, and
// asserts the per-node memory budgets that make the million-node
// experiment (E29) feasible: the engine's own state must stay under
// 128 B/node and the whole process — protocol state included — under
// 1 KiB per virtual node after GC. The struct-of-arrays engine plus the
// lazy per-node maps measure ~570 B/vnode idle; the budget leaves
// headroom without letting per-node regressions hide.
func TestScaleFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const n = 262144
	h := skeap.New(skeap.Config{N: n, P: 8, Seed: 1030})
	h.SetAutoRepeat(false)
	eng := h.NewSyncEngine()
	eng.SetParallel(-1)
	rnd := hashutil.NewRand(1031)
	id := prio.ElemID(1)
	for i := 0; i < 2048; i++ {
		host := rnd.Intn(n)
		if rnd.Bool(0.6) {
			h.InjectInsert(host, id, rnd.Intn(8), "")
			id++
		} else {
			h.InjectDelete(host)
		}
	}
	h.StartIteration(eng.Context(h.Overlay().Anchor))
	if !eng.RunUntil(h.Done, maxRounds(n)) {
		t.Fatalf("n=%d run incomplete: %d/%d", n, h.Trace().DoneCount(), h.Trace().Len())
	}
	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics at scale:\n%s", rep.Error())
	}
	ms := eng.MemStats(true)
	if ms.EngineBytesPerNode() > 128 {
		t.Errorf("engine footprint %.1f B/node exceeds the 128 B/node budget (%+v)", ms.EngineBytesPerNode(), ms)
	}
	if ms.HeapBytesPerNode() > 1024 {
		t.Errorf("process heap %.1f B/vnode exceeds the 1 KiB/vnode budget (%+v)", ms.HeapBytesPerNode(), ms)
	}
	t.Logf("footprint at %d vnodes: %s", ms.Nodes, ms.String())
}
