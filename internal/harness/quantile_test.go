package harness

import (
	"math"
	"sort"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

func loadEstimator(n, m, k int, seed uint64) (*quantileEstimator, []prio.Element, sim.Engine) {
	ov := ldb.New(n, hashutil.New(seed))
	e := newQuantileEstimator(ov, hashutil.New(seed+1), k)
	rnd := hashutil.NewRand(seed + 2)
	elems := make([]prio.Element, m)
	for i := 0; i < m; i++ {
		elems[i] = prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64n(1 << 20))}
		e.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())), elems[i])
	}
	return e, elems, sim.Build(e.spec(seed + 3))
}

func trueRank(elems []prio.Element, est prio.Element) int {
	cp := append([]prio.Element(nil), elems...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	for i, el := range cp {
		if el == est {
			return i + 1
		}
	}
	return -1
}

func TestMedianEstimateAccuracy(t *testing.T) {
	const m = 2000
	e, elems, eng := loadEstimator(16, m, 256, 1)
	e.Start(eng.Context(e.Anchor()), 0.5)
	if !eng.RunUntil(e.Done, 100000) {
		t.Fatal("estimator stuck")
	}
	res := e.Result()
	if !res.Found || res.Count != m {
		t.Fatalf("result %+v", res)
	}
	rank := trueRank(elems, res.Estimate)
	if rank < 0 {
		t.Fatal("estimate is not one of the elements")
	}
	// Rank error O(N/√k): with k=256 and N=2000, tolerate ~6·N/√k ≈ 750…
	// use a tighter empirical bound of N/4.
	if math.Abs(float64(rank)-float64(m)/2) > float64(m)/4 {
		t.Fatalf("median estimate rank %d far from %d", rank, m/2)
	}
}

func TestAccuracyImprovesWithK(t *testing.T) {
	const m = 4000
	errAt := func(k int) float64 {
		var total float64
		for s := uint64(0); s < 5; s++ {
			e, elems, eng := loadEstimator(8, m, k, 10+s)
			e.Start(eng.Context(e.Anchor()), 0.5)
			eng.RunUntil(e.Done, 100000)
			rank := trueRank(elems, e.Result().Estimate)
			total += math.Abs(float64(rank) - float64(m)/2)
		}
		return total / 5
	}
	small, large := errAt(16), errAt(1024)
	if large >= small {
		t.Fatalf("error must shrink with k: k=16 → %.0f, k=1024 → %.0f", small, large)
	}
}

func TestExactWhenKExceedsN(t *testing.T) {
	// A sketch larger than the population is the full population: the
	// estimate is the exact quantile.
	const m = 100
	e, elems, eng := loadEstimator(4, m, 1000, 20)
	e.Start(eng.Context(e.Anchor()), 0.25)
	eng.RunUntil(e.Done, 100000)
	res := e.Result()
	if res.Sampled != m {
		t.Fatalf("sampled %d of %d", res.Sampled, m)
	}
	if rank := trueRank(elems, res.Estimate); rank != m/4 {
		t.Fatalf("exact quantile rank %d, want %d", rank, m/4)
	}
}

func TestSingleRoundCost(t *testing.T) {
	// One gather: rounds ≈ tree height, messages ≈ #virtual nodes.
	e, _, eng := loadEstimator(64, 1000, 64, 30)
	e.Start(eng.Context(e.Anchor()), 0.9)
	if !eng.RunUntil(e.Done, 100000) {
		t.Fatal("stuck")
	}
	ov := ldb.New(64, hashutil.New(30))
	if eng.Metrics().Rounds > 3*ov.TreeHeight()+4 {
		t.Fatalf("one phase took %d rounds (height %d)", eng.Metrics().Rounds, ov.TreeHeight())
	}
	if eng.Metrics().Messages > int64(2*3*64) {
		t.Fatalf("one phase used %d messages", eng.Metrics().Messages)
	}
}

func TestEmptyPopulation(t *testing.T) {
	ov := ldb.New(4, hashutil.New(40))
	e := newQuantileEstimator(ov, hashutil.New(41), 8)
	eng := sim.Build(e.spec(42))
	e.Start(eng.Context(e.Anchor()), 0.5)
	if !eng.RunUntil(e.Done, 100000) {
		t.Fatal("stuck")
	}
	if e.Result().Found || e.Result().Count != 0 {
		t.Fatalf("empty population result %+v", e.Result())
	}
}

func TestBottomKMergeProperty(t *testing.T) {
	// Merging in any grouping must equal the bottom-k of the union.
	mk := func(tags ...uint64) []tagged {
		out := make([]tagged, len(tags))
		for i, tg := range tags {
			out[i] = tagged{tag: tg, elem: prio.Element{ID: prio.ElemID(tg)}}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].tag < out[j].tag })
		return out
	}
	a := mk(5, 9, 2)
	b := mk(7, 1)
	c := mk(8, 3, 6)
	k := 4
	left := mergeBottomK(k, mergeBottomK(k, a, b), c)
	right := mergeBottomK(k, a, mergeBottomK(k, b, c))
	flat := mergeBottomK(k, a, b, c)
	for i := range flat {
		if left[i].tag != flat[i].tag || right[i].tag != flat[i].tag {
			t.Fatalf("merge not associative: %v %v %v", left, right, flat)
		}
	}
	if len(flat) != k || flat[0].tag != 1 || flat[3].tag != 5 {
		t.Fatalf("bottom-k wrong: %v", flat)
	}
}

func TestInvalidArgsPanic(t *testing.T) {
	ov := ldb.New(2, hashutil.New(50))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for k=0")
			}
		}()
		newQuantileEstimator(ov, hashutil.New(51), 0)
	}()
	e := newQuantileEstimator(ov, hashutil.New(52), 4)
	eng := sim.Build(e.spec(53))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for φ out of range")
		}
	}()
	e.Start(eng.Context(e.Anchor()), 0)
}
