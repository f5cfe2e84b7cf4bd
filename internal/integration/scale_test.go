package integration

import (
	"runtime"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/sim"
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
// nodes), runs a small bounded workload on the round engine, and
// asserts the per-node memory budgets that make the million-node
// experiment (E29) feasible: the engine's own state must stay under
// 128 B/node and the whole process — protocol state included — under
// 1 KiB per virtual node after GC. The struct-of-arrays engine plus the
// lazy per-node maps measure ~470 B/vnode after the run; the budget leaves
// headroom without letting per-node regressions hide.
func TestScaleFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const n = 262144
	h := skeap.New(skeap.Config{N: n, P: 8, Seed: 1030})
	h.SetAutoRepeat(false)
	eng := h.NewSyncEngine()
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

// TestAllocationBudget is the allocation regression gate: one seeded batch
// per protocol at n=256 — 2 operations per host, 60/40 insert/delete over
// the priorities [1,4] (Skeap) and [1,16n²] (Seap), and KSelect of rank 2n
// over 4n uniform elements — run from its start to completion on the round
// engine. Those batches are one entry long, so skeap-sat adds a saturated
// shape whose batches are many entries long: 8 hosts, 64 operations per
// host per batch, 50/50, 20 batches. It counts heap allocations per operation (per element for
// KSelect), not per round, so a change that only saves rounds cannot move
// it. The measured values repeat run to run; each budget is 2x the value
// measured when the gate was set, skeap-sat's 1.3x so that the batch code
// that allocated per entry (10.2) fails it, and the serial seap and
// kselect rows 1.1x so that per-node aggtree registration fails them.
func TestAllocationBudget(t *testing.T) {
	const seed = 1
	// heap buffers batches × hosts × perHost operations in be, perHost per
	// host and batch in host order, and returns the run of the batches and
	// the operation count. The heap must take at most perHost operations
	// of a host into one batch.
	heap := func(be relax.Backend, hosts, perHost, batches int, insert float64, bound uint64) (func() bool, int) {
		be.SetAutoRepeat(false)
		rnd := hashutil.NewRand(seed + 1)
		id := prio.ElemID(1)
		ops := batches * hosts * perHost
		for i := 0; i < ops; i++ {
			if host := i / perHost % hosts; rnd.Bool(insert) {
				be.InjectInsert(host, id, rnd.Uint64n(bound)+1, "")
				id++
			} else {
				be.InjectDelete(host)
			}
		}
		eng := sim.Build(be.Spec(sim.KindSync)).(*sim.SyncEngine)
		return func() bool {
			for b := 1; b <= batches; b++ {
				be.StartBatch(eng.Context(be.Overlay().Anchor))
				done := func() bool { return be.Trace().DoneCount() == b*hosts*perHost }
				if !eng.RunUntil(done, maxRounds(hosts)) {
					return false
				}
			}
			return true
		}, ops
	}
	cases := []struct {
		name   string
		budget float64 // allocations per operation (per element for KSelect)
	}{
		{"skeap", 43},      // measured 21.5 (23.6 before DHT replies went to the issuer's records, 28.6 before the batch skipped right leaves, 45.5 before batches shared arrays)
		{"skeap-sat", 4.0}, // measured 3.1 (4.6 before DHT replies went to the issuer's records, 10.2 before batches shared arrays)
		{"seap", 79},       // measured 71.8 (74.8 before DHT replies went to the issuer's records, 114.8 before the tree instances skipped subtrees without work, 123.2 before a cycle ran one count and no load, 189.6 before a KSelect iteration took three tree instances, 251.3 before the sort ended by convergecast)
		{"kselect", 37},    // measured 33.8 (59.2 before the tree instances skipped subtrees without candidates, 88.9 before a KSelect iteration took three tree instances, 122.2 before the sort ended by convergecast)
	}
	for _, c := range cases {
		const n = 256
		var run func() bool
		var ops int
		switch c.name {
		case "skeap":
			run, ops = heap(relax.WrapSkeap(skeap.New(skeap.Config{N: n, P: 4, Seed: seed})), n, 2, 1, 0.6, 4)
		case "skeap-sat":
			h := skeap.New(skeap.Config{N: 8, P: 4, Seed: seed, MaxBatch: 64})
			run, ops = heap(relax.WrapSkeap(h), 8, 64, 20, 0.5, 4)
		case "seap":
			run, ops = heap(relax.WrapSeap(seap.New(seap.Config{N: n, PrioBound: 16 * n * n, Seed: seed})), n, 2, 1, 0.6, 16*n*n)
		case "kselect":
			sel := kselect.New(ldb.New(n, hashutil.New(seed)), hashutil.New(seed+1))
			sel.LoadUniform(4*n, 16*n, seed+2)
			eng := sel.NewSyncEngine(seed + 3)
			run = func() bool {
				sel.Start(eng.Context(sel.Anchor()), 2*n)
				return eng.RunUntil(sel.Done, maxRounds(n))
			}
			ops = 4 * n
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if !run() {
			t.Fatalf("%s: batch incomplete", c.name)
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
		if perOp > c.budget {
			t.Errorf("%s: %.1f allocations per operation exceed the budget of %g", c.name, perOp, c.budget)
		} else {
			t.Logf("%s: %.1f allocations per operation", c.name, perOp)
		}
	}
}

// TestConstructionAllocations is the construction gate beside
// TestAllocationBudget: a protocol registers its aggtree protocols once per
// instance, in one table its nodes share, and carves per-node state from
// flat arrays, so building Skeap, Seap (with its embedded KSelect) or a
// KSelect Selector at n=1024 allocates at most 0.5 objects per virtual
// node. Per-node registration allocated 5, 51 and 26.
func TestConstructionAllocations(t *testing.T) {
	const n = 1024
	const seed = 1
	ov := ldb.New(n, hashutil.New(seed))
	cases := []struct {
		name  string
		build func()
	}{
		{"skeap", func() { skeap.New(skeap.Config{N: n, P: 4, Seed: seed}) }},
		{"seap", func() { seap.New(seap.Config{N: n, PrioBound: 16 * n * n, Seed: seed}) }},
		{"kselect", func() { kselect.New(ov, hashutil.New(seed+1)) }},
	}
	for _, c := range cases {
		perNode := testing.AllocsPerRun(2, c.build) / float64(3*n)
		if perNode > 0.5 {
			t.Errorf("%s: building at n=%d allocates %.2f objects per virtual node, budget 0.5", c.name, n, perNode)
		} else {
			t.Logf("%s: %.3f allocations per virtual node", c.name, perNode)
		}
	}
}
