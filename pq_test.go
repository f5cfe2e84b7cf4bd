package dpq

import (
	"sort"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/prio"
)

func TestSkeapFacadeRoundTrip(t *testing.T) {
	pq, err := New(Skeap, Options{Nodes: 8, Priorities: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pq.At(0).Insert(2, "mid")
	pq.At(1).Insert(1, "hi")
	pq.At(2).Insert(3, "low")
	if _, err := pq.Drain(); err != nil {
		t.Fatal(err)
	}
	pq.At(3).DeleteMin()
	pq.At(4).DeleteMin()
	pq.At(5).DeleteMin()
	if _, err := pq.Drain(); err != nil {
		t.Fatal(err)
	}
	res := pq.Results()
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	want := []string{"hi", "mid", "low"}
	for i, d := range res {
		if !d.Found || d.Payload != want[i] {
			t.Fatalf("results %+v, want payload order %v", res, want)
		}
	}
	if err := pq.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	if pq.Metrics().Messages == 0 {
		t.Fatal("metrics not collected")
	}
}

func TestSeapFacadeRoundTrip(t *testing.T) {
	pq, err := New(Seap, Options{Nodes: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pq.At(0).Insert(50000, "low")
	pq.At(1).Insert(3, "hi")
	if _, err := pq.Drain(); err != nil {
		t.Fatal(err)
	}
	pq.At(2).DeleteMin()
	if _, err := pq.Drain(); err != nil {
		t.Fatal(err)
	}
	res := pq.Results()
	if len(res) != 1 || !res[0].Found || res[0].Payload != "hi" || res[0].Priority != 3 {
		t.Fatalf("results %+v", res)
	}
	if err := pq.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
}

func TestEmptyHeapDelivery(t *testing.T) {
	pq, err := New(Seap, Options{Nodes: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pq.At(0).DeleteMin()
	if _, err := pq.Drain(); err != nil {
		t.Fatal(err)
	}
	res := pq.Results()
	if len(res) != 1 || res[0].Found {
		t.Fatalf("⊥ expected, got %+v", res)
	}
}

func TestSkeapPriorityBoundsChecked(t *testing.T) {
	if _, err := New(Skeap, Options{Nodes: 2, Priorities: 1000}); err == nil {
		t.Fatal("Skeap must reject non-constant priority universes")
	}
	if _, err := New(Skeap, Options{Nodes: 0}); err == nil {
		t.Fatal("zero nodes must be rejected")
	}
}

func TestHostRangeChecked(t *testing.T) {
	pq, _ := New(Seap, Options{Nodes: 2, Seed: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pq.At(5).Insert(1, "")
}

func TestRandomMixedVerifies(t *testing.T) {
	for _, proto := range []Protocol{Skeap, Seap} {
		pq, err := New(proto, Options{Nodes: 6, Priorities: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		rnd := hashutil.NewRand(6)
		for i := 0; i < 50; i++ {
			if rnd.Bool(0.6) {
				pq.At(rnd.Intn(6)).Insert(rnd.Uint64n(4)+1, "")
			} else {
				pq.At(rnd.Intn(6)).DeleteMin()
			}
		}
		if _, err := pq.Drain(); err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if err := pq.Verify(); err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
	}
}

func TestSelectFacade(t *testing.T) {
	rnd := hashutil.NewRand(7)
	elems := make([]prio.Element, 150)
	for i := range elems {
		elems[i] = prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64n(1000) + 1)}
	}
	res, err := Select(8, elems, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	cp := append([]prio.Element(nil), elems...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	if res.Elem != cp[59] {
		t.Fatalf("got %v want %v", res.Elem, cp[59])
	}
}

func TestSelectValidation(t *testing.T) {
	if _, err := Select(0, nil, 1, 1); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := Select(2, []prio.Element{{ID: 1, Prio: 1}}, 2, 1); err == nil {
		t.Fatal("rank beyond m must error")
	}
}

func TestResultsSerializationOrder(t *testing.T) {
	pq, _ := New(Skeap, Options{Nodes: 4, Priorities: 2, Seed: 9})
	for i := 0; i < 6; i++ {
		pq.At(i%4).Insert(uint64(i%2)+1, "")
	}
	pq.Drain()
	for i := 0; i < 6; i++ {
		pq.At(i % 4).DeleteMin()
	}
	pq.Drain()
	res := pq.Results()
	// Priority-1 elements must all precede priority-2 elements.
	seenTwo := false
	for _, d := range res {
		if d.Priority == 2 {
			seenTwo = true
		}
		if d.Priority == 1 && seenTwo {
			t.Fatalf("priority order broken: %+v", res)
		}
	}
}

func TestMaxHeapFacade(t *testing.T) {
	pq, err := New(Skeap, Options{Nodes: 4, Priorities: 3, Seed: 60, MaxHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	pq.At(0).Insert(1, "low")
	pq.At(1).Insert(3, "high")
	pq.Drain()
	pq.At(2).DeleteMin()
	pq.Drain()
	res := pq.Results()
	if len(res) != 1 || res[0].Payload != "high" {
		t.Fatalf("max-heap facade returned %+v", res)
	}
	if err := pq.Verify(); err != nil {
		t.Fatalf("max-heap verify: %v", err)
	}
}

func TestMaxHeapRejectedForSeap(t *testing.T) {
	if _, err := New(Seap, Options{Nodes: 2, MaxHeap: true}); err == nil {
		t.Fatal("Seap MaxHeap must be rejected")
	}
}

func TestSeqConsistentFacade(t *testing.T) {
	pq, err := New(Seap, Options{Nodes: 4, Priorities: 500, Seed: 70, SeqConsistent: true})
	if err != nil {
		t.Fatal(err)
	}
	// Local order at host 0: Delete (⊥), Insert, Delete (own element).
	pq.At(0).DeleteMin()
	pq.At(0).Insert(9, "mine")
	pq.At(0).DeleteMin()
	if _, err := pq.Drain(); err != nil {
		t.Fatal(err)
	}
	res := pq.Results()
	if len(res) != 2 || res[0].Found || !res[1].Found {
		t.Fatalf("results %+v", res)
	}
	if err := pq.Verify(); err != nil {
		t.Fatalf("SC variant must verify sequential consistency: %v", err)
	}
}

func TestSeqConsistentRejectedForSkeap(t *testing.T) {
	if _, err := New(Skeap, Options{Nodes: 2, SeqConsistent: true}); err == nil {
		t.Fatal("Skeap SeqConsistent option must be rejected")
	}
}
