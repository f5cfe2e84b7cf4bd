package seap

import (
	"fmt"
	"strings"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

func maxRounds(n int) int { return 4000 * (mathx.Log2Ceil(n) + 3) }

var engines = map[*Heap]*sim.SyncEngine{}

func engineOf(h *Heap) *sim.SyncEngine {
	eng, ok := engines[h]
	if !ok {
		eng = h.NewSyncEngine()
		engines[h] = eng
	}
	return eng
}

func runSync(t *testing.T, h *Heap) {
	t.Helper()
	eng := engineOf(h)
	if !eng.RunUntil(h.Done, maxRounds(h.cfg.N)) {
		t.Fatalf("heap stuck: %d/%d ops done after %d rounds",
			h.trace.DoneCount(), h.trace.Len(), eng.Metrics().Rounds)
	}
}

func TestSingleInsertDelete(t *testing.T) {
	h := New(Config{N: 4, PrioBound: 100, Seed: 1})
	h.InjectInsert(0, 1, 42, "x")
	h.InjectDelete(2)
	runSync(t, h)
	if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && op.Result.ID != 1 {
			t.Fatalf("delete returned %v", op.Result)
		}
	}
}

func TestEmptyHeapDeletes(t *testing.T) {
	h := New(Config{N: 3, PrioBound: 10, Seed: 2})
	h.InjectDelete(0)
	h.InjectDelete(1)
	runSync(t, h)
	for _, op := range h.Trace().Ops() {
		if !op.Result.Nil() {
			t.Fatalf("delete on empty heap returned %v", op.Result)
		}
	}
	if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

func TestMinimumComesOutFirst(t *testing.T) {
	h := New(Config{N: 8, PrioBound: 1 << 20, Seed: 3})
	h.InjectInsert(1, 10, 500000, "low")
	h.InjectInsert(3, 11, 7, "hi")
	h.InjectInsert(5, 12, 90000, "mid")
	runSync(t, h)
	h.InjectDelete(2)
	runSync(t, h)
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && op.Result.ID != 11 {
			t.Fatalf("delete returned %v, want the priority-7 element", op.Result)
		}
	}
	if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

func TestMoreDeletesThanElements(t *testing.T) {
	h := New(Config{N: 4, PrioBound: 50, Seed: 4})
	h.InjectInsert(0, 1, 5, "")
	h.InjectInsert(1, 2, 9, "")
	for host := 0; host < 4; host++ {
		h.InjectDelete(host)
	}
	runSync(t, h)
	matched, bottoms := 0, 0
	for _, op := range h.Trace().Ops() {
		if op.Kind != semantics.DeleteMin {
			continue
		}
		if op.Result.Nil() {
			bottoms++
		} else {
			matched++
		}
	}
	if matched != 2 || bottoms != 2 {
		t.Fatalf("matched=%d bottoms=%d", matched, bottoms)
	}
	if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

func randomWorkload(h *Heap, seed uint64, ops int) {
	rnd := hashutil.NewRand(seed)
	id := prio.ElemID(1)
	for i := 0; i < ops; i++ {
		host := rnd.Intn(h.cfg.N)
		if rnd.Bool(0.6) {
			h.InjectInsert(host, id, rnd.Uint64n(h.cfg.PrioBound)+1, "")
			id++
		} else {
			h.InjectDelete(host)
		}
	}
}

func TestRandomWorkloadSerializable(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		h := New(Config{N: n, PrioBound: 1000, Seed: uint64(n) * 11})
		randomWorkload(h, uint64(n)*13, 60)
		runSync(t, h)
		if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
			t.Fatalf("n=%d: semantics violated:\n%s", n, rep.Error())
		}
	}
}

func TestDuplicatePriorities(t *testing.T) {
	// Heavy ties: the id tiebreaker orders equal priorities.
	h := New(Config{N: 6, PrioBound: 3, Seed: 21})
	for i := 0; i < 30; i++ {
		h.InjectInsert(i%6, prio.ElemID(i+1), uint64(i%3)+1, "")
	}
	runSync(t, h)
	for i := 0; i < 30; i++ {
		h.InjectDelete(i % 6)
	}
	runSync(t, h)
	if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

func TestContinuousInjection(t *testing.T) {
	h := New(Config{N: 8, PrioBound: 10000, Seed: 7})
	eng := engineOf(h)
	rnd := hashutil.NewRand(8)
	id := prio.ElemID(1)
	for round := 0; round < 3000; round++ {
		if round < 1500 && round%10 == 0 {
			host := rnd.Intn(8)
			if rnd.Bool(0.5) {
				h.InjectInsert(host, id, rnd.Uint64n(10000)+1, "")
				id++
			} else {
				h.InjectDelete(host)
			}
		}
		eng.Step()
		if round > 1500 && h.Done() {
			break
		}
	}
	if !h.Done() {
		eng.RunUntil(h.Done, maxRounds(8))
	}
	if !h.Done() {
		t.Fatalf("ops incomplete: %d/%d", h.trace.DoneCount(), h.trace.Len())
	}
	if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

func TestAsyncExecutionSerializable(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		h := New(Config{N: 5, PrioBound: 500, Seed: 100 + seed})
		randomWorkload(h, 200+seed, 30)
		spec := h.Spec(sim.KindAsync)
		spec.MaxDelay = 3.0
		eng := sim.Build(spec)
		if !eng.RunUntil(h.Done, 5_000_000) {
			t.Fatalf("seed %d: async run incomplete (%d/%d)", seed, h.trace.DoneCount(), h.trace.Len())
		}
		if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
			t.Fatalf("seed %d: semantics violated:\n%s", seed, rep.Error())
		}
	}
}

func TestFairness(t *testing.T) {
	n := 16
	h := New(Config{N: n, PrioBound: 1 << 30, Seed: 9})
	rnd := hashutil.NewRand(10)
	m := 32 * n
	for i := 0; i < m; i++ {
		h.InjectInsert(rnd.Intn(n), prio.ElemID(i+1), rnd.Uint64n(1<<30)+1, "")
	}
	runSync(t, h)
	// Insert ops complete when issued; run on until every Put has landed.
	eng := engineOf(h)
	eng.RunUntil(func() bool {
		total := 0
		for _, s := range h.StoreSizes() {
			total += s
		}
		return total == m
	}, maxRounds(n))
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
	if h.Size() != int64(m) {
		t.Fatalf("anchor believes m=%d", h.Size())
	}
}

func TestInterleavedGrowShrink(t *testing.T) {
	h := New(Config{N: 4, PrioBound: 100000, Seed: 12})
	rnd := hashutil.NewRand(13)
	id := prio.ElemID(1)
	for wave := 0; wave < 4; wave++ {
		for i := 0; i < 12; i++ {
			h.InjectInsert(rnd.Intn(4), id, rnd.Uint64n(100000)+1, "")
			id++
		}
		runSync(t, h)
		for i := 0; i < 8; i++ {
			h.InjectDelete(rnd.Intn(4))
		}
		runSync(t, h)
	}
	if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
	if h.Size() != 16 {
		t.Fatalf("expected 16 residual elements, anchor says %d", h.Size())
	}
}

func TestCyclesProgress(t *testing.T) {
	h := New(Config{N: 4, Seed: 14})
	eng := engineOf(h)
	for i := 0; i < 400; i++ {
		eng.Step()
	}
	if h.Cycles() < 2 {
		t.Fatalf("anchor should keep cycling, got %d", h.Cycles())
	}
}

func TestMessageBitsIndependentOfRate(t *testing.T) {
	// Theorem 5.1(5): message size O(log n) bits regardless of Λ. Compare
	// max message bits between a low-rate and a high-rate run.
	run := func(ops int) int {
		h := New(Config{N: 8, PrioBound: 1 << 20, Seed: 15})
		randomWorkload(h, 16, ops)
		eng := h.NewSyncEngine()
		if !eng.RunUntil(h.Done, maxRounds(8)) {
			t.Fatalf("run with %d ops stuck", ops)
		}
		return eng.Metrics().MaxMessageBit
	}
	low := run(4)
	high := run(200)
	if high > 2*low {
		t.Fatalf("max message bits grew with the injection rate: %d -> %d", low, high)
	}
}

func TestInvalidPriorityPanics(t *testing.T) {
	h := New(Config{N: 1, PrioBound: 10, Seed: 16})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.InjectInsert(0, 1, 0, "")
}

func TestDelRecordSorting(t *testing.T) {
	mk := func(pos int64, id prio.ElemID, p prio.Priority) *delRecord {
		return &delRecord{pos: pos, res: prio.Element{ID: id, Prio: p}, done: true}
	}
	byKey := []*delRecord{mk(3, 9, 50), mk(1, 2, 10), mk(2, 5, 10)}
	sortRecordsByKey(byKey)
	if byKey[0].res.ID != 2 || byKey[1].res.ID != 5 || byKey[2].res.ID != 9 {
		t.Fatalf("key order wrong: %v %v %v", byKey[0].res, byKey[1].res, byKey[2].res)
	}
	byPos := []*delRecord{mk(9, 0, 0), mk(2, 0, 0), mk(5, 0, 0)}
	sortRecordsByPos(byPos)
	if byPos[0].pos != 2 || byPos[1].pos != 5 || byPos[2].pos != 9 {
		t.Fatalf("pos order wrong")
	}
}

func TestValShareBits(t *testing.T) {
	if (&valShare{}).Bits() != 6*64 {
		t.Fatal("valShare bits")
	}
	if (&assignParams{}).Bits() != 64+128 {
		t.Fatal("assignParams bits")
	}
}

// TestSeapSelectionRunsPhase1: with m > n^{3/2} stored elements the
// selection starts with phase 1's window, and that start, not a sample's,
// loads every node's candidates: phase 1 prunes some of them.
func TestSeapSelectionRunsPhase1(t *testing.T) {
	const n = 8
	h := New(Config{N: n, PrioBound: 1000, Seed: 650})
	h.SetAutoRepeat(false)
	id := prio.ElemID(1)
	for host := 0; host < n; host++ {
		for i := 0; i < 12; i++ {
			h.InjectInsert(host, id, uint64(id*37%1000)+1, "")
			id++
			if i%2 == 0 {
				h.InjectDelete(host)
			}
		}
	}
	runCycle(t, h, engineOf(h))
	res := h.selector.Result()
	if total := h.m + h.kStar; res.Phase1Skipped || h.kStar != 6*n || res.CandidatesAfterP1 >= total {
		t.Fatalf("k* = %d among %d elements, phase 1 skipped %v and left %d: want a selection whose phase 1 prunes", h.kStar, total, res.Phase1Skipped, res.CandidatesAfterP1)
	}
	if !h.Done() {
		t.Fatalf("%d/%d ops done after the cycle", h.trace.DoneCount(), h.trace.Len())
	}
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

// TestStoredCountChecked: the selection's first sort checks that the nodes
// hold the m + k* elements the anchor counts, so an anchor whose m is off
// fails loudly instead of extracting the wrong elements.
func TestStoredCountChecked(t *testing.T) {
	h := New(Config{N: 4, PrioBound: 100, Seed: 660})
	h.SetAutoRepeat(false)
	for host := 0; host < 4; host++ {
		h.InjectInsert(host, prio.ElemID(host+1), uint64(host)+1, "")
	}
	eng := engineOf(h)
	runCycle(t, h, eng)
	h.m++ // one element the DHT does not hold
	h.InjectDelete(0)
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "candidate count other than N") {
			t.Fatalf("recovered %v, want the candidate count check's panic", r)
		}
	}()
	runCycle(t, h, eng)
}
