package skeap

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

func maxRounds(n int) int { return 500 * (mathx.Log2Ceil(n) + 3) }

// engines gives every heap one persistent synchronous engine, so that
// successive injection waves within a test run against the same network
// state.
var engines = map[*Heap]*sim.SyncEngine{}

func engineOf(h *Heap) *sim.SyncEngine {
	eng, ok := engines[h]
	if !ok {
		eng = h.NewSyncEngine()
		engines[h] = eng
	}
	return eng
}

// runSync drives the heap's engine until all injected ops complete.
func runSync(t *testing.T, h *Heap) {
	t.Helper()
	eng := engineOf(h)
	if !eng.RunUntil(h.Done, maxRounds(h.cfg.N)) {
		t.Fatalf("heap stuck: %d/%d ops done after %d rounds",
			h.trace.DoneCount(), h.trace.Len(), eng.Metrics().Rounds)
	}
}

// settle runs extra rounds so in-flight DHT puts land in their stores.
func settle(h *Heap) {
	eng := engineOf(h)
	for i := 0; i < maxRounds(h.cfg.N)/4; i++ {
		eng.Step()
	}
}

func TestSingleInsertDelete(t *testing.T) {
	h := New(Config{N: 4, P: 2, Seed: 1})
	h.InjectInsert(0, 1, 1, "x")
	h.InjectDelete(2)
	runSync(t, h)
	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && op.Result.ID != 1 {
			t.Fatalf("delete returned %v", op.Result)
		}
	}
}

func TestEmptyHeapDeleteReturnsBottom(t *testing.T) {
	h := New(Config{N: 3, P: 1, Seed: 2})
	h.InjectDelete(0)
	h.InjectDelete(1)
	runSync(t, h)
	for _, op := range h.Trace().Ops() {
		if !op.Result.Nil() {
			t.Fatalf("delete on empty heap returned %v", op.Result)
		}
	}
	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

func TestPriorityOrderAcrossNodes(t *testing.T) {
	// Elements inserted with distinct priorities at different hosts must
	// come back in priority order once all inserts are processed.
	h := New(Config{N: 8, P: 4, Seed: 3})
	h.InjectInsert(1, 10, 3, "low")
	h.InjectInsert(3, 11, 0, "hi")
	h.InjectInsert(5, 12, 1, "mid")
	runSync(t, h)

	h.InjectDelete(2)
	h.InjectDelete(4)
	h.InjectDelete(6)
	runSync(t, h)

	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
	// The delete with the smallest serialization value must return the
	// priority-0 element.
	var first *semantics.Op
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && (first == nil || op.Value < first.Value) {
			first = op
		}
	}
	if first.Result.ID != 11 {
		t.Fatalf("first delete got %v, want the priority-0 element", first.Result)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	// Equal priorities leave in insertion (position) order even when
	// element ids are decreasing.
	h := New(Config{N: 2, P: 1, Seed: 4})
	h.InjectInsert(0, 100, 0, "first")
	runSync(t, h)
	h.InjectInsert(0, 50, 0, "second")
	runSync(t, h)
	h.InjectDelete(1)
	runSync(t, h)
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && op.Result.ID != 100 {
			t.Fatalf("FIFO violated: got %v", op.Result)
		}
	}
	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

func TestLocalOrderPreserved(t *testing.T) {
	// A node that inserts then deletes in one batch must have its delete
	// able to match its own insert (local consistency + heap property 2).
	h := New(Config{N: 4, P: 2, Seed: 5})
	h.InjectInsert(1, 1, 0, "a")
	h.InjectDelete(1)
	runSync(t, h)
	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && op.Result.ID != 1 {
			t.Fatalf("delete returned %v", op.Result)
		}
	}
}

func TestDeleteBeforeInsertInLocalOrderGetsBottom(t *testing.T) {
	// Delete issued before insert at the same node (one batch): the
	// serialization must respect the local order, so the delete sees an
	// empty heap.
	h := New(Config{N: 2, P: 1, Seed: 6})
	h.InjectDelete(0)
	h.InjectInsert(0, 1, 0, "later")
	runSync(t, h)
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && !op.Result.Nil() {
			t.Fatalf("delete preceding insert returned %v", op.Result)
		}
	}
	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

func randomWorkload(h *Heap, seed uint64, ops int) {
	rnd := hashutil.NewRand(seed)
	id := prio.ElemID(1)
	for i := 0; i < ops; i++ {
		host := rnd.Intn(h.cfg.N)
		if rnd.Bool(0.6) {
			h.InjectInsert(host, id, rnd.Intn(h.cfg.P), "")
			id++
		} else {
			h.InjectDelete(host)
		}
	}
}

func TestRandomWorkloadSequentiallyConsistent(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		h := New(Config{N: n, P: 3, Seed: uint64(n) * 11})
		randomWorkload(h, uint64(n)*13, 60)
		runSync(t, h)
		if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
			t.Fatalf("n=%d: semantics violated:\n%s", n, rep.Error())
		}
	}
}

func TestContinuousInjection(t *testing.T) {
	// Ops injected while iterations are running (the steady-state mode).
	h := New(Config{N: 8, P: 2, Seed: 7})
	eng := h.NewSyncEngine()
	rnd := hashutil.NewRand(8)
	id := prio.ElemID(1)
	for round := 0; round < 200; round++ {
		if round < 120 && round%3 == 0 {
			host := rnd.Intn(8)
			if rnd.Bool(0.5) {
				h.InjectInsert(host, id, rnd.Intn(2), "")
				id++
			} else {
				h.InjectDelete(host)
			}
		}
		eng.Step()
		if round > 120 && h.Done() {
			break
		}
	}
	if !h.Done() {
		eng.RunUntil(h.Done, maxRounds(8))
	}
	if !h.Done() {
		t.Fatalf("ops incomplete: %d/%d", h.trace.DoneCount(), h.trace.Len())
	}
	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

func TestAsyncExecutionSequentiallyConsistent(t *testing.T) {
	// The adversarial asynchronous engine: random delays, non-FIFO.
	for seed := uint64(0); seed < 5; seed++ {
		h := New(Config{N: 6, P: 3, Seed: 100 + seed})
		randomWorkload(h, 200+seed, 40)
		spec := h.Spec(sim.KindAsync)
		spec.MaxDelay = 3.0
		eng := sim.Build(spec)
		if !eng.RunUntil(h.Done, 2_000_000) {
			t.Fatalf("seed %d: async run incomplete (%d/%d)", seed, h.trace.DoneCount(), h.trace.Len())
		}
		if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
			t.Fatalf("seed %d: semantics violated:\n%s", seed, rep.Error())
		}
	}
}

func TestSingleBatchRoundsLogarithmic(t *testing.T) {
	// Corollary 3.6: one batch completes in O(log n) rounds w.h.p.
	for _, n := range []int{8, 64, 256} {
		h := New(Config{N: n, P: 2, Seed: uint64(n) + 1000})
		h.SetAutoRepeat(false)
		rnd := hashutil.NewRand(uint64(n))
		for i := 0; i < n; i++ {
			h.InjectInsert(i, prio.ElemID(i+1), rnd.Intn(2), "")
		}
		eng := h.NewSyncEngine()
		h.StartIteration(eng.Context(h.ov.Anchor))
		if !eng.RunUntil(h.Done, maxRounds(n)) {
			t.Fatalf("n=%d: batch incomplete", n)
		}
		bound := 60 * (mathx.Log2Ceil(n) + 2)
		if eng.Metrics().Rounds > bound {
			t.Fatalf("n=%d: %d rounds > %d", n, eng.Metrics().Rounds, bound)
		}
	}
}

func TestFairnessOfStorage(t *testing.T) {
	// Theorem 3.2(1): elements spread ≈ m/n per node.
	n := 32
	h := New(Config{N: n, P: 2, Seed: 9})
	rnd := hashutil.NewRand(10)
	m := 32 * n
	for i := 0; i < m; i++ {
		h.InjectInsert(rnd.Intn(n), prio.ElemID(i+1), rnd.Intn(2), "")
	}
	runSync(t, h)
	settle(h)
	sizes := h.StoreSizes()
	total, max := 0, 0
	for _, s := range sizes {
		total += s
		if s > max {
			max = s
		}
	}
	if total != m {
		t.Fatalf("stored %d of %d", total, m)
	}
	if max > 8*(m/n) {
		t.Fatalf("max load %d vs mean %d", max, m/n)
	}
}

func TestIterationsProgress(t *testing.T) {
	// The anchor keeps iterating while operations keep arriving; what an
	// idle anchor does is TestIdleAnchorGoesQuiet's.
	h := New(Config{N: 4, P: 1, Seed: 11})
	eng := h.NewSyncEngine()
	for i := 0; i < 50; i++ {
		if i%10 == 0 {
			h.InjectInsert(i/10%4, prio.ElemID(i+1), 0, "")
		}
		eng.Step()
	}
	if h.Iterations() < 2 {
		t.Fatalf("anchor should keep iterating, got %d", h.Iterations())
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{N: 0, P: 1}, {N: 1, P: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v must panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestInjectInvalidPriorityPanics(t *testing.T) {
	h := New(Config{N: 1, P: 2, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.InjectInsert(0, 1, 5, "")
}

func TestManyPrioritiesInterleaved(t *testing.T) {
	// All priorities exercised, deletes draining across priority
	// boundaries (anchor's multi-interval delete pieces).
	h := New(Config{N: 4, P: 5, Seed: 12})
	id := prio.ElemID(1)
	for p := 4; p >= 0; p-- {
		for i := 0; i < 3; i++ {
			h.InjectInsert(p%4, id, p, "")
			id++
		}
	}
	runSync(t, h)
	for i := 0; i < 15; i++ {
		h.InjectDelete(i % 4)
	}
	runSync(t, h)
	if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
	// All 15 deletes matched, in priority order by serialization value.
	var dels []*semantics.Op
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin {
			if op.Result.Nil() {
				t.Fatal("unexpected ⊥")
			}
			dels = append(dels, op)
		}
	}
	if len(dels) != 15 {
		t.Fatalf("%d deletes", len(dels))
	}
}
