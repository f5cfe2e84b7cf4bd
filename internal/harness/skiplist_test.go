package harness

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"dpq/internal/hashutil"
	"dpq/internal/prio"
	"dpq/internal/seqheap"
)

func TestSequentialOrder(t *testing.T) {
	q := newSkipPQ(1)
	prios := []uint64{5, 1, 9, 3, 7}
	for i, p := range prios {
		q.Insert(prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(p)})
	}
	var got []uint64
	for {
		e, ok := q.DeleteMin()
		if !ok {
			break
		}
		got = append(got, uint64(e.Prio))
	}
	want := []uint64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEmptyDelete(t *testing.T) {
	q := newSkipPQ(2)
	if _, ok := q.DeleteMin(); ok {
		t.Fatal("empty queue returned an element")
	}
	if _, ok := q.Min(); ok {
		t.Fatal("empty queue has a minimum")
	}
}

// TestAgainstOracleQuick: random op sequences must match the sequential
// binary heap exactly (same keys in, same keys out).
func TestAgainstOracleQuick(t *testing.T) {
	f := func(seed uint64, script []byte) bool {
		q := newSkipPQ(seed)
		oracle := seqheap.New(0)
		rnd := hashutil.NewRand(seed + 1)
		id := prio.ElemID(1)
		for _, b := range script {
			if b%3 != 0 {
				e := prio.Element{ID: id, Prio: prio.Priority(rnd.Uint64n(16))}
				id++
				q.Insert(e)
				oracle.Insert(e)
			} else {
				got, ok1 := q.DeleteMin()
				want, ok2 := oracle.DeleteMin()
				if ok1 != ok2 || (ok1 && got != want) {
					return false
				}
			}
			if !q.Valid() || q.Len() != oracle.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentConservation: W workers hammer the queue; every inserted
// element must be deleted exactly once.
func TestConcurrentConservation(t *testing.T) {
	const workers = 8
	const perWorker = 500
	q := newSkipPQ(3)

	var mu sync.Mutex
	seen := map[prio.ElemID]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := hashutil.NewRand(uint64(100 + w))
			for i := 0; i < perWorker; i++ {
				id := prio.ElemID(w*perWorker + i + 1)
				q.Insert(prio.Element{ID: id, Prio: prio.Priority(rnd.Uint64n(1000))})
				if e, ok := q.DeleteMinAs(int64(w + 1)); ok {
					mu.Lock()
					seen[e.ID]++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain the remainder.
	for {
		e, ok := q.DeleteMin()
		if !ok {
			break
		}
		mu.Lock()
		seen[e.ID]++
		mu.Unlock()
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("deleted %d distinct elements, inserted %d", len(seen), workers*perWorker)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("element %d deleted %d times", id, c)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("length %d after full drain", q.Len())
	}
}

// TestContentionGrowsWithWorkers: the head region is the bottleneck the
// paper attributes to [SL00]-style designs — with more deleters, every
// traversal crosses more memory dirtied by other workers.
func TestContentionGrowsWithWorkers(t *testing.T) {
	run := func(workers int) int64 {
		q := newSkipPQ(4)
		for i := 0; i < workers*300; i++ {
			q.Insert(prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(i)})
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					q.DeleteMinAs(int64(w + 1))
				}
			}(w)
		}
		wg.Wait()
		return q.ForeignSkips() + q.Retries()
	}
	single := run(1)
	if single != 0 {
		t.Fatalf("a single deleter cannot contend with itself, got %d", single)
	}
	many := run(8)
	if many == 0 {
		t.Skip("no interleaving observed (scheduler did not overlap workers)")
	}
}

func TestMinDoesNotRemove(t *testing.T) {
	q := newSkipPQ(5)
	q.Insert(prio.Element{ID: 1, Prio: 4})
	if e, ok := q.Min(); !ok || e.ID != 1 {
		t.Fatal("min wrong")
	}
	if q.Len() != 1 {
		t.Fatal("Min must not remove")
	}
}

func TestSweepKeepsLiveElements(t *testing.T) {
	q := newSkipPQ(6)
	total := 3 * skipSweepThreshold
	for i := 0; i < total; i++ {
		q.Insert(prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(i)})
	}
	// Delete enough to trigger sweeps, then verify the survivors.
	for i := 0; i < 2*skipSweepThreshold; i++ {
		if _, ok := q.DeleteMin(); !ok {
			t.Fatal("premature empty")
		}
	}
	if !q.Valid() {
		t.Fatal("invariants broken after sweep")
	}
	count := 0
	for {
		e, ok := q.DeleteMin()
		if !ok {
			break
		}
		if int(e.Prio) < 2*skipSweepThreshold {
			t.Fatalf("element %v should have been deleted earlier", e)
		}
		count++
	}
	if count != total-2*skipSweepThreshold {
		t.Fatalf("survivors %d, want %d", count, total-2*skipSweepThreshold)
	}
}

func BenchmarkSkipInsert(b *testing.B) {
	q := newSkipPQ(1)
	rnd := hashutil.NewRand(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Insert(prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64())})
	}
}

func BenchmarkSkipMix(b *testing.B) {
	q := newSkipPQ(3)
	rnd := hashutil.NewRand(4)
	for i := 0; i < 512; i++ {
		q.Insert(prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64())})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Insert(prio.Element{ID: prio.ElemID(i + 1000), Prio: prio.Priority(rnd.Uint64())})
		q.DeleteMin()
	}
}

func BenchmarkSkipParallelMix(b *testing.B) {
	// Bounded-size structure: every worker inserts then deletes, so the
	// list stays ~1k nodes regardless of b.N (a growing pre-fill would
	// make the periodic sweeps quadratic).
	q := newSkipPQ(5)
	rnd := hashutil.NewRand(6)
	for i := 0; i < 1024; i++ {
		q.Insert(prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64())})
	}
	var ctr atomic.Uint64
	ctr.Store(100000)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := ctr.Add(1)
			q.Insert(prio.Element{ID: prio.ElemID(id), Prio: prio.Priority(id * 2654435761)})
			q.DeleteMinAs(int64(id%64 + 1))
		}
	})
}
