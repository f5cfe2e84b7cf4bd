package kselect

import (
	"sort"
	"testing"
	"testing/quick"

	"dpq/internal/aggtree"
	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// sortRig runs ONLY the distributed-sorting machinery (Algorithm 3) by
// loading n′ candidates, forcing an exact sample, and watching completion.
type sortRig struct {
	ov  *ldb.Overlay
	sel *Selector
	eng *sim.SyncEngine
	// orders holds the last sorting epoch's candidates by order.
	orders map[int64]prio.Element
}

func newSortRig(t *testing.T, n int, keys []uint64, seed uint64) *sortRig {
	t.Helper()
	ov := ldb.New(n, hashutil.New(seed))
	sel := New(ov, hashutil.New(seed+1))
	rnd := hashutil.NewRand(seed + 2)
	for i, p := range keys {
		sel.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())),
			prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(p)})
	}
	return &sortRig{ov: ov, sel: sel, eng: sel.NewSyncEngine(seed + 3)}
}

// run performs a selection of rank k (any rank exercises the sort when the
// candidate set is small enough for the exact phase), keeping the orders
// of its last sorting epoch.
func (r *sortRig) run(t *testing.T, k int64) {
	t.Helper()
	done := watchEpochs(r.sel, func(*sortTables) { r.orders = completedOrders(r.sel) })
	r.sel.Start(r.eng.Context(r.sel.Anchor()), k)
	if !r.eng.RunUntil(done, 500000) {
		t.Fatal("sorting rig stuck")
	}
}

// TestDistributionTreeCoversAllCopies: after an exact sort of n′ elements,
// every candidate's order must be its true rank — which can only happen if
// all n′ copies of every candidate reached holders and every pair met.
func TestExactSortOrdersAreRanks(t *testing.T) {
	keys := []uint64{42, 7, 99, 13, 58, 3, 77, 21}
	r := newSortRig(t, 5, keys, 11)
	// The exact phase records orders in the root table; collect them in
	// a rank-1 selection (which runs the exact sort over all 8 elements —
	// N=8 ≤ the immediate-exact threshold).
	r.run(t, 1)
	orders := map[int64]prio.Priority{}
	for order, e := range r.orders {
		orders[order] = e.Prio
	}
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(orders) != len(keys) {
		t.Fatalf("completed %d of %d candidates", len(orders), len(keys))
	}
	for i, p := range sorted {
		if uint64(orders[int64(i+1)]) != p {
			t.Fatalf("order %d has priority %d, want %d", i+1, orders[int64(i+1)], p)
		}
	}
}

// TestSubtreeRangesPartition: the recursive [lo,hi] splitting must cover
// every copy index exactly once — checked as pure range arithmetic over
// random interval sizes.
func TestSubtreeRangesPartition(t *testing.T) {
	f := func(szRaw uint8) bool {
		n := int64(szRaw%200) + 1
		covered := make([]int, n+1)
		var walk func(lo, hi int64)
		walk = func(lo, hi int64) {
			if hi < lo {
				return
			}
			mid := (lo + hi) / 2
			covered[mid]++
			walk(lo, mid-1)
			walk(mid+1, hi)
		}
		walk(1, n)
		for j := int64(1); j <= n; j++ {
			if covered[j] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMeetPointSymmetry: the per-epoch pair hash must be symmetric and
// epoch-sensitive.
func TestMeetPointSymmetry(t *testing.T) {
	ov := ldb.New(2, hashutil.New(1))
	sel := New(ov, hashutil.New(2))
	f := func(epoch uint64, i, j uint16) bool {
		a := sel.meetPoint(epoch, int64(i), int64(j))
		b := sel.meetPoint(epoch, int64(j), int64(i))
		return a == b && a >= 0 && a < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if sel.meetPoint(1, 3, 4) == sel.meetPoint(2, 3, 4) {
		t.Fatal("meet points must differ across epochs")
	}
}

// TestRootPointsDistinctPerEpoch: positions map to fresh pseudorandom
// sorting roots every round.
func TestRootPointsDistinctPerEpoch(t *testing.T) {
	ov := ldb.New(2, hashutil.New(3))
	sel := New(ov, hashutil.New(4))
	seen := map[float64]bool{}
	for epoch := uint64(1); epoch <= 8; epoch++ {
		for pos := int64(1); pos <= 8; pos++ {
			p := sel.rootPoint(epoch, pos)
			if p < 0 || p >= 1 {
				t.Fatalf("root point out of range: %v", p)
			}
			if seen[p] {
				t.Fatal("root point collision across epochs/positions")
			}
			seen[p] = true
		}
	}
}

// TestSelfCopyNeedsNoPartner: a single-candidate selection must complete —
// its only copy is the self-copy with the immediate (0,0) vector.
func TestSelfCopyNeedsNoPartner(t *testing.T) {
	r := newSortRig(t, 3, []uint64{5}, 21)
	r.run(t, 1)
	if !r.sel.Result().Found || r.sel.Result().Elem.Prio != 5 {
		t.Fatalf("result %v", r.sel.Result())
	}
}

// TestHoldersDrainAfterCompletion: no holder or meeting point may be left
// live when a sorting epoch ends (everything matched and aggregated), and
// the sort tables are released once the selection finishes.
func TestHoldersDrainAfterCompletion(t *testing.T) {
	keys := make([]uint64, 40)
	rnd := hashutil.NewRand(31)
	for i := range keys {
		keys[i] = rnd.Uint64n(1000) + 1
	}
	r := newSortRig(t, 6, keys, 32)
	epochs := 0
	done := watchEpochs(r.sel, func(tb *sortTables) {
		epochs++
		for i, h := range tb.holders {
			if h.state == entryLive {
				t.Errorf("epoch %d: holder of copy (%d,%d) at node %d still live", epochs, int64(i)/tb.nPrime+1, int64(i)%tb.nPrime+1, h.owner)
			}
		}
		for i, mp := range tb.meet {
			if mp.state == entryLive {
				t.Errorf("epoch %d: meeting point %d at node %d still holds one copy", epochs, i, mp.owner)
			}
		}
	})
	r.sel.Start(r.eng.Context(r.sel.Anchor()), 17)
	if !r.eng.RunUntil(done, 500000) {
		t.Fatal("sorting rig stuck")
	}
	if epochs == 0 {
		t.Fatal("no sorting epoch observed")
	}
	if tb := r.sel.tables; tb.holders != nil || tb.meet != nil || tb.roots != nil {
		t.Fatal("sort tables not released after the selection")
	}
}

// TestVectorConservation: at every completed sorting root, L+R must equal
// n′−1 (each other candidate contributes exactly one comparison).
func TestVectorConservation(t *testing.T) {
	// ≤ 8 candidates go straight to the exact phase, so every candidate
	// is a sorting root.
	keys := make([]uint64, 8)
	for i := range keys {
		keys[i] = uint64(i*3 + 1)
	}
	r := newSortRig(t, 4, keys, 41)
	r.run(t, 5)
	orders := r.orders
	for order := range orders {
		if order < 1 || order > int64(len(keys)) {
			t.Fatalf("order %d out of range", order)
		}
	}
	if len(orders) != len(keys) {
		t.Fatalf("%d roots completed, want %d", len(orders), len(keys))
	}
}

// completedOrders returns the current sorting epoch's candidates whose
// order is known, by order: the orders from the Selector's root table, the
// candidates from their issuers' samples.
func completedOrders(sel *Selector) map[int64]prio.Element {
	orders := map[int64]prio.Element{}
	for i, rt := range sel.tables.roots {
		if rt.state == entryDone {
			iss := sel.nodes[rt.issuer]
			orders[rt.order] = iss.sample[int64(i)+1-iss.samplePos].elem
		}
	}
	return orders
}

// watchEpochs returns a RunUntil predicate, true once the selection is done,
// that calls check once per sorting epoch: in the round its last sorting
// root learned its order, before the next epoch resizes the tables.
func watchEpochs(sel *Selector, check func(*sortTables)) func() bool {
	wasSorted := false
	return func() bool {
		tb := &sel.tables
		sorted := tb.roots != nil
		for _, rt := range tb.roots {
			sorted = sorted && rt.state == entryDone
		}
		if sorted && !wasSorted {
			check(tb)
		}
		wasSorted = sorted
		return sel.Done()
	}
}

// TestSortEndsByConvergecast: a sort ends by one up wave, not by polling.
// No start wave of the done instance is sent; per completed sort, exactly
// the non-anchor nodes whose subtrees issued samples, as their sample ups
// say, send one done message each (the convergecast's O(n) messages, on
// the issuers' paths only); and the anchor hears the last of them at most
// one tree height after the sort's last message (position share, route,
// seek, vector or order report).
func TestSortEndsByConvergecast(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		n := 64
		ov := ldb.New(n, hashutil.New(seed))
		sel := New(ov, hashutil.New(seed+1))
		sel.LoadUniform(16*n, uint64(64*n), seed+2)
		eng := sel.NewSyncEngine(seed + 3)
		var starts, ups, sorts, lastSort, worst int
		doneTag := tagDone
		issuers := map[uint64]map[sim.NodeID]int{} // sample seq → senders of a non-empty draw
		dones := map[uint64]map[sim.NodeID]int{}   // done seq → senders of a done message
		count := func(m map[uint64]map[sim.NodeID]int, seq uint64, from sim.NodeID) {
			if m[seq] == nil {
				m[seq] = map[sim.NodeID]int{}
			}
			m[seq][from]++
		}
		eng.SetObserver(func(d sim.Delivery) {
			switch m := d.Msg.(type) {
			case *aggtree.StartMsg:
				if m.Tag == doneTag {
					starts++
				}
			case *aggtree.UpMsg:
				if m.Tag == tagSample && m.V.(aggtree.Int2Val).A > 0 {
					count(issuers, m.Seq, d.From)
				}
				if m.Tag != doneTag {
					return
				}
				ups++
				count(dones, m.Seq, d.From)
				if d.To == ov.Anchor {
					worst = max(worst, d.Round-lastSort)
				}
			case *aggtree.DownMsg:
				if m.Tag == tagSample {
					lastSort = d.Round
				}
			case *ldb.RouteMsg, *DistSeekMsg, *DistArriveMsg, *VecMsg, *OrderedMsg:
				lastSort = d.Round
			}
		})
		prevEpoch := uint64(0)
		sel.Start(eng.Context(sel.Anchor()), int64(8*n))
		if !eng.RunUntil(func() bool {
			if sel.nPrime > 0 && sel.epoch != prevEpoch {
				prevEpoch = sel.epoch
				sorts++
			}
			return sel.Done()
		}, 500000) {
			t.Fatal("selection did not finish")
		}
		t.Logf("seed %d: %d sorts, %d done messages, end heard ≤ %d rounds after the last sort message (height %d)", seed, sorts, ups, worst, ov.TreeHeight())
		if starts != 0 {
			t.Errorf("seed %d: %d start messages of the done instance, want none", seed, starts)
		}
		if len(dones) == 0 || len(dones) > sorts {
			t.Errorf("seed %d: done convergecasts for %d sample instances over %d sorts", seed, len(dones), sorts)
		}
		for seq, senders := range dones {
			if len(senders) != len(issuers[seq]) {
				t.Errorf("seed %d: sort %d: %d nodes sent done messages, %d subtrees issued samples", seed, seq, len(senders), len(issuers[seq]))
			}
			for from, c := range senders {
				if c != 1 || issuers[seq][from] != 1 {
					t.Errorf("seed %d: sort %d: node %d sent %d done messages and %d non-empty sample ups, want 1 and 1", seed, seq, from, c, issuers[seq][from])
				}
			}
		}
		if limit := ov.TreeHeight(); worst > limit {
			t.Errorf("seed %d: the anchor heard a sort's end %d rounds after its last message, want ≤ height = %d", seed, worst, limit)
		}
	}
}
