package dpq

import (
	"sort"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/mathx"
)

func TestUniqueGapFreeValues(t *testing.T) {
	c := NewCounter(8, 1)
	eng := c.NewSyncEngine(2)
	var got []int64
	rnd := hashutil.NewRand(3)
	const total = 100
	for i := 0; i < total; i++ {
		c.Increment(rnd.Intn(8), func(v int64) { got = append(got, v) })
	}
	if !eng.RunUntil(c.Done, 100000) {
		t.Fatal("counter stuck")
	}
	if len(got) != total {
		t.Fatalf("completed %d of %d", len(got), total)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("values not gap-free 1..%d: %v", total, got[:i+1])
		}
	}
}

func TestLocalOrderWithinNode(t *testing.T) {
	// Two increments at the same node must receive increasing values in
	// issue order (local consistency of the interval split).
	c := NewCounter(4, 4)
	eng := c.NewSyncEngine(5)
	var first, second int64
	c.Increment(2, func(v int64) { first = v })
	c.Increment(2, func(v int64) { second = v })
	if !eng.RunUntil(c.Done, 100000) {
		t.Fatal("counter stuck")
	}
	if first >= second {
		t.Fatalf("issue order violated: %d then %d", first, second)
	}
}

func TestContinuousIncrements(t *testing.T) {
	c := NewCounter(6, 6)
	eng := c.NewSyncEngine(7)
	rnd := hashutil.NewRand(8)
	issued := 0
	for round := 0; round < 400; round++ {
		if round < 300 && round%2 == 0 {
			c.Increment(rnd.Intn(6), nil)
			issued++
		}
		eng.Step()
		if round > 300 && c.Done() {
			break
		}
	}
	eng.RunUntil(c.Done, 100000)
	if !c.Done() {
		t.Fatal("increments incomplete")
	}
	if c.Batches() < 2 {
		t.Fatalf("anchor should batch repeatedly, got %d", c.Batches())
	}
}

func TestBatchRoundsLogarithmic(t *testing.T) {
	// One batch of n increments completes in O(log n) rounds — the same
	// shape as Skeap's Cor. 3.6, with a far smaller constant (no DHT).
	for _, n := range []int{16, 128, 1024} {
		c := NewCounter(n, uint64(n))
		eng := c.NewSyncEngine(uint64(n) + 1)
		for host := 0; host < n; host++ {
			c.Increment(host, nil)
		}
		if !eng.RunUntil(c.Done, 100000) {
			t.Fatalf("n=%d stuck", n)
		}
		bound := 30 * (mathx.Log2Ceil(n) + 2)
		if eng.Metrics().Rounds > bound {
			t.Fatalf("n=%d: %d rounds > %d", n, eng.Metrics().Rounds, bound)
		}
	}
}

func TestValuesAcrossBatchesMonotone(t *testing.T) {
	c := NewCounter(3, 9)
	eng := c.NewSyncEngine(10)
	var batch1, batch2 []int64
	for i := 0; i < 5; i++ {
		c.Increment(i%3, func(v int64) { batch1 = append(batch1, v) })
	}
	if !eng.RunUntil(c.Done, 100000) {
		t.Fatal("batch 1 stuck")
	}
	for i := 0; i < 5; i++ {
		c.Increment(i%3, func(v int64) { batch2 = append(batch2, v) })
	}
	if !eng.RunUntil(c.Done, 100000) {
		t.Fatal("batch 2 stuck")
	}
	max1 := int64(0)
	for _, v := range batch1 {
		if v > max1 {
			max1 = v
		}
	}
	for _, v := range batch2 {
		if v <= max1 {
			t.Fatalf("batch 2 value %d not after batch 1 max %d", v, max1)
		}
	}
}
