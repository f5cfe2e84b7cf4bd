package kselect

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// Phase-1 window correctness at the boundaries DESIGN.md documents: the
// window [P_min, P_max] must always contain the rank-k element,
// whatever the local candidate counts are.

// phase1KeepsTarget runs a selection of rank k over dist's elements on 5
// processes and checks its answer. The elements must number more than
// 5^{3/2} ≈ 11.2, or phase 1, the code under test, is skipped; the check
// fails if it was.
func phase1KeepsTarget(t *testing.T, dist func(sel *Selector, ov *ldb.Overlay) []prio.Element, k int64, seed uint64) {
	t.Helper()
	ov := ldb.New(5, hashutil.New(seed))
	sel := New(ov, hashutil.New(seed+1))
	elems := dist(sel, ov)
	eng := sel.NewSyncEngine(seed + 2)
	sel.Start(eng.Context(sel.Anchor()), k)
	if !eng.RunUntil(sel.Done, 500000) {
		t.Fatal("selection stuck")
	}
	if sel.Result().Phase1Skipped {
		t.Fatalf("k=%d: phase 1 skipped over %d elements, the test needs it to run", k, len(elems))
	}
	want := expected(elems, k)
	if sel.Result().Elem != want {
		t.Fatalf("k=%d: got %v want %v", k, sel.Result().Elem, want)
	}
}

func TestWindowKLessThanNodeCount(t *testing.T) {
	// k < number of virtual nodes ⇒ ⌊k/n⌋ = 0 at every node: the lower
	// contribution must fall back to MinKey (no unsafe pruning).
	dist := func(sel *Selector, ov *ldb.Overlay) []prio.Element {
		var elems []prio.Element
		rnd := hashutil.NewRand(99)
		for i := 0; i < 100; i++ {
			e := prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64n(1000))}
			elems = append(elems, e)
			sel.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())), e)
		}
		return elems
	}
	for _, k := range []int64{1, 2, 5} {
		phase1KeepsTarget(t, dist, k, 100+uint64(k))
	}
}

func TestWindowSparseNodes(t *testing.T) {
	// Most nodes hold fewer candidates than ⌈k/n⌉: their P_max
	// contribution must be the conservative MaxKey, not a misleading
	// local value.
	dist := func(sel *Selector, ov *ldb.Overlay) []prio.Element {
		var elems []prio.Element
		// 6 elements on each of the first two virtual nodes only.
		for i := 0; i < 12; i++ {
			e := prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(100 - i)}
			elems = append(elems, e)
			sel.Load(sim.NodeID(i%2), e)
		}
		return elems
	}
	for _, k := range []int64{1, 6, 12} {
		phase1KeepsTarget(t, dist, k, 200+uint64(k))
	}
}

func TestWindowAllAtOneNodeLargeK(t *testing.T) {
	// Every element at one node, k near m: the safe-counting argument for
	// P_min contributions at nodes with |C| < ⌊k/n⌋ must hold.
	dist := func(sel *Selector, ov *ldb.Overlay) []prio.Element {
		var elems []prio.Element
		for i := 0; i < 200; i++ {
			e := prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(i * 7)}
			elems = append(elems, e)
			sel.Load(ov.Anchor, e)
		}
		return elems
	}
	for _, k := range []int64{195, 200} {
		phase1KeepsTarget(t, dist, k, 300+uint64(k))
	}
}

func TestPruneBookkeeping(t *testing.T) {
	// Direct unit test of Node.prune and countLess.
	n := &Node{sel: &Selector{}}
	for i := 1; i <= 10; i++ {
		n.cand = append(n.cand, prio.Element{ID: prio.ElemID(i), Prio: prio.Priority(i * 10)})
	}
	n.sorted = false
	lo := prio.Key{Prio: 30, ID: 3}
	hi := prio.Key{Prio: 70, ID: 7}
	if c := n.countLess(lo); c != 2 {
		t.Fatalf("countLess=%d", c)
	}
	below, above := n.prune(lo, hi)
	if below != 2 || above != 3 {
		t.Fatalf("below=%d above=%d", below, above)
	}
	if len(n.cand) != 5 {
		t.Fatalf("remaining %d", len(n.cand))
	}
	for _, e := range n.cand {
		k := prio.KeyOf(e)
		if k.Less(lo) || hi.Less(k) {
			t.Fatalf("element %v outside window survived", e)
		}
	}
}

func TestInitialDeltaPositive(t *testing.T) {
	for _, n := range []int{1, 2, 16, 1024} {
		if d := initialDelta(n); d < 1 {
			t.Fatalf("delta(%d)=%v", n, d)
		}
	}
}
