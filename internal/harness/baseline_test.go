package harness

import (
	"sort"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

func TestCentralHeapSemantics(t *testing.T) {
	c := newCentralHeap(8)
	rnd := hashutil.NewRand(1)
	id := prio.ElemID(1)
	for i := 0; i < 100; i++ {
		host := rnd.Intn(8)
		if rnd.Bool(0.6) {
			c.InjectInsert(host, id, rnd.Uint64n(50)+1, "")
			id++
		} else {
			c.InjectDelete(host)
		}
	}
	eng := sim.Build(c.spec(2))
	if !eng.RunUntil(c.Done, 10000) {
		t.Fatal("central heap stuck")
	}
	if rep := semantics.CheckSerializable(c.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("central heap semantics:\n%s", rep.Error())
	}
}

func TestCentralHeapCoordinatorCongestion(t *testing.T) {
	// The defining weakness: congestion grows linearly with concurrent
	// load at the coordinator.
	congestion := func(n int) int {
		c := newCentralHeap(n)
		for host := 1; host < n; host++ {
			c.InjectInsert(host, prio.ElemID(host), 1, "")
		}
		eng := sim.Build(c.spec(3))
		eng.RunUntil(c.Done, 1000)
		return eng.Metrics().Congestion
	}
	c8, c64 := congestion(8), congestion(64)
	if c64 < 4*c8 {
		t.Fatalf("expected near-linear coordinator congestion: n=8→%d, n=64→%d", c8, c64)
	}
}

func TestCentralHeapLocalOrder(t *testing.T) {
	// Under the synchronous engine the coordinator serializes each node's
	// ops in issue order, so the trace is even sequentially consistent.
	c := newCentralHeap(4)
	c.InjectInsert(1, 1, 5, "")
	c.InjectDelete(1)
	eng := sim.Build(c.spec(4))
	if !eng.RunUntil(c.Done, 1000) {
		t.Fatal("stuck")
	}
	if rep := semantics.CheckAll(c.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("central heap sequential consistency:\n%s", rep.Error())
	}
}

func loadSelector(mode selectMode, n, m int, seed uint64) (*baselineSelector, []prio.Element, sim.Engine) {
	ov := ldb.New(n, hashutil.New(seed))
	s := newBaselineSelector(ov, mode)
	rnd := hashutil.NewRand(seed + 1)
	elems := make([]prio.Element, m)
	for i := 0; i < m; i++ {
		e := prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64n(uint64(m)) + 1)}
		elems[i] = e
		s.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())), e)
	}
	return s, elems, sim.Build(s.spec(seed + 2))
}

func kthSmallest(elems []prio.Element, k int64) prio.Element {
	cp := append([]prio.Element(nil), elems...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	return cp[k-1]
}

func TestGatherAllSelect(t *testing.T) {
	s, elems, eng := loadSelector(gatherAll, 8, 200, 10)
	s.Start(eng.Context(s.Anchor()), 77)
	if !eng.RunUntil(s.Done, 10000) {
		t.Fatal("gather-all stuck")
	}
	if want := kthSmallest(elems, 77); s.Result().Elem != want {
		t.Fatalf("got %v want %v", s.Result().Elem, want)
	}
	if s.Result().Phases != 1 {
		t.Fatalf("gather-all should use one phase, used %d", s.Result().Phases)
	}
}

func TestGatherAllMessageBlowup(t *testing.T) {
	s, _, eng := loadSelector(gatherAll, 16, 2000, 11)
	s.Start(eng.Context(s.Anchor()), 1000)
	eng.RunUntil(s.Done, 10000)
	// Root-adjacent messages carry Θ(m) elements.
	if eng.Metrics().MaxMessageBit < 2000*64 {
		t.Fatalf("expected Θ(m)-bit messages, max was %d bits", eng.Metrics().MaxMessageBit)
	}
}

func TestBinarySearchSelect(t *testing.T) {
	for _, k := range []int64{1, 50, 123, 200} {
		s, elems, eng := loadSelector(binarySearch, 8, 200, 12+uint64(k))
		s.Start(eng.Context(s.Anchor()), k)
		if !eng.RunUntil(s.Done, 2_000_000) {
			t.Fatalf("k=%d: binary search stuck", k)
		}
		if want := kthSmallest(elems, k); s.Result().Elem != want {
			t.Fatalf("k=%d: got %v want %v", k, s.Result().Elem, want)
		}
	}
}

func TestBinarySearchSmallMessages(t *testing.T) {
	s, _, eng := loadSelector(binarySearch, 16, 2000, 13)
	s.Start(eng.Context(s.Anchor()), 1000)
	if !eng.RunUntil(s.Done, 5_000_000) {
		t.Fatal("binary search stuck")
	}
	if eng.Metrics().MaxMessageBit > 2048 {
		t.Fatalf("binary search should use small messages, max was %d bits", eng.Metrics().MaxMessageBit)
	}
	// Phases ≈ log of the key-space; far more than KSelect's O(1)
	// per-phase count but each phase is cheap.
	if s.Result().Phases < 10 {
		t.Fatalf("suspiciously few phases: %d", s.Result().Phases)
	}
}

func TestBinarySearchDuplicatePriorities(t *testing.T) {
	ov := ldb.New(4, hashutil.New(20))
	s := newBaselineSelector(ov, binarySearch)
	var elems []prio.Element
	for i := 0; i < 60; i++ {
		e := prio.Element{ID: prio.ElemID(i + 1), Prio: 7} // all equal
		elems = append(elems, e)
		s.Load(sim.NodeID(i%ov.NumVirtual()), e)
	}
	eng := sim.Build(s.spec(21))
	s.Start(eng.Context(s.Anchor()), 30)
	if !eng.RunUntil(s.Done, 5_000_000) {
		t.Fatal("binary search stuck on ties")
	}
	if want := kthSmallest(elems, 30); s.Result().Elem != want {
		t.Fatalf("got %v want %v", s.Result().Elem, want)
	}
}

func TestGatherAllRankOutOfRange(t *testing.T) {
	s, _, eng := loadSelector(gatherAll, 4, 10, 30)
	s.Start(eng.Context(s.Anchor()), 11)
	eng.RunUntil(s.Done, 10000)
	if s.Result().Found {
		t.Fatal("rank beyond m must not be found")
	}
}

func TestMidKeyProgress(t *testing.T) {
	lo := prio.Key{Prio: 1, ID: prio.ElemID(^uint64(0))}
	hi := prio.Key{Prio: 2, ID: 5}
	mid := prio.MidKey(lo, hi)
	if !lo.Less(mid) || !mid.Less(hi) {
		t.Fatalf("mid %v not strictly between %v and %v", mid, lo, hi)
	}
	if prio.KeysAdjacent(lo, hi) {
		t.Fatal("keys 6 apart reported adjacent")
	}
	if !prio.KeysAdjacent(prio.Key{Prio: 1, ID: 4}, prio.Key{Prio: 1, ID: 5}) {
		t.Fatal("adjacent keys not detected")
	}
}
