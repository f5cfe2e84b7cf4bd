package dpq

import (
	"strings"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/relax"
)

func TestEngineOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the expected error
	}{
		{"maxdelay on sync", Options{Nodes: 2, MaxDelay: 3}, "MaxDelay"},
		{"negative maxdelay", Options{Nodes: 2, Engine: EngineAsync, MaxDelay: -1}, "MaxDelay"},
		{"unknown engine", Options{Nodes: 2, Engine: EngineKind(99)}, "unknown engine"},
	}
	for _, tc := range cases {
		if _, err := New(Seap, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
	// The valid combinations must construct; the deprecated Workers field
	// is ignored.
	for _, opts := range []Options{
		{Nodes: 2},
		{Nodes: 2, Workers: 3},
		{Nodes: 2, Engine: EngineAsync, MaxDelay: 1.5},
	} {
		pq, err := New(Seap, opts)
		if err != nil {
			t.Fatalf("valid options %+v rejected: %v", opts, err)
		}
		if pq.EngineKind() != opts.Engine {
			t.Fatalf("EngineKind() = %v, want %v", pq.EngineKind(), opts.Engine)
		}
	}
}

// TestBatchAPIAllEngines drives the builder + Drain cycle on every engine
// kind and both protocols; every engine must deliver the same multiset in
// priority order and pass verification, and Engine() exposes the
// synchronous engine only.
func TestBatchAPIAllEngines(t *testing.T) {
	kinds := []EngineKind{EngineSync, EngineAsync}
	for _, proto := range []Protocol{Skeap, Seap} {
		for _, kind := range kinds {
			opts := Options{Nodes: 4, Priorities: 3, Seed: 11, Engine: kind}
			pq, err := New(proto, opts)
			if err != nil {
				t.Fatalf("%v/%v: %v", proto, kind, err)
			}
			pq.At(0).Insert(2, "mid").Insert(1, "hi")
			pq.At(1).Insert(3, "low")
			pq.At(2).DeleteMin().DeleteMin()
			pq.At(3).DeleteMin()
			got, err := pq.Drain()
			if err != nil {
				t.Fatalf("%v/%v: Drain: %v", proto, kind, err)
			}
			want := []string{"hi", "mid", "low"}
			if len(got) != 3 {
				t.Fatalf("%v/%v: %d deliveries, want 3: %+v", proto, kind, len(got), got)
			}
			for i, d := range got {
				if !d.Found || d.Payload != want[i] {
					t.Fatalf("%v/%v: deliveries %+v, want payload order %v", proto, kind, got, want)
				}
			}
			if err := pq.Verify(); err != nil {
				t.Fatalf("%v/%v: %v", proto, kind, err)
			}
			if pq.Metrics().Messages == 0 {
				t.Fatalf("%v/%v: no messages accounted", proto, kind)
			}
			if (pq.Engine() == nil) != (kind == EngineAsync) {
				t.Fatalf("%v/%v: Engine() = %v", proto, kind, pq.Engine())
			}
		}
	}
}

// TestDrainIncremental checks each Drain returns only the deliveries new
// since the previous one.
func TestDrainIncremental(t *testing.T) {
	pq, err := New(Seap, Options{Nodes: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pq.At(0).Insert(5, "a").DeleteMin()
	first, err := pq.Drain()
	if err != nil || len(first) != 1 || first[0].Payload != "a" {
		t.Fatalf("first drain: %+v, %v", first, err)
	}
	// An empty batch drains to nothing.
	empty, err := pq.Drain()
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty drain: %+v, %v", empty, err)
	}
	pq.At(1).Insert(9, "b")
	pq.At(2).DeleteMin().DeleteMin()
	second, err := pq.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 2 || second[0].Payload != "b" || second[1].Found {
		t.Fatalf("second drain must be only the new deliveries (b, then ⊥): %+v", second)
	}
	if all := pq.Results(); len(all) != 3 {
		t.Fatalf("Results must keep the full history: %+v", all)
	}
}

// TestDrainReturnsEachDeliveryOnce: over many Drains, the union of their
// outputs is Results() with every delivery exactly once — also when a mode's
// serialization values do not respect Drain boundaries (BatchLocal's
// Lamport stamps) and on the asynchronous engine.
func TestDrainReturnsEachDeliveryOnce(t *testing.T) {
	cases := []struct {
		name  string
		proto Protocol
		opts  Options
	}{
		{"skeap", Skeap, Options{}},
		{"seap", Seap, Options{}},
		{"samplek", Skeap, Options{Relaxation: relax.Options{Mode: relax.SampleK, K: 2}}},
		{"batchlocal", Skeap, Options{Relaxation: relax.Options{Mode: relax.BatchLocal}}},
		{"async", Seap, Options{Engine: EngineAsync}},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			opts := c.opts
			opts.Nodes, opts.Priorities, opts.Seed = 8, 3, seed
			pq, err := New(c.proto, opts)
			if err != nil {
				t.Fatal(err)
			}
			rnd := hashutil.NewRand(seed)
			count := map[Delivery]int{}
			for d := 0; d < 10; d++ {
				for i := 0; i < 40; i++ {
					if rnd.Bool(0.5) {
						pq.At(rnd.Intn(8)).Insert(rnd.Uint64n(3)+1, "")
					} else {
						pq.At(rnd.Intn(8)).DeleteMin()
					}
				}
				got, err := pq.Drain()
				if err != nil {
					t.Fatalf("%s seed %d: %v", c.name, seed, err)
				}
				for _, dl := range got {
					count[dl]++
				}
			}
			for _, dl := range pq.Results() {
				count[dl]--
			}
			for dl, k := range count {
				if k != 0 {
					t.Fatalf("%s seed %d: delivery %+v: Drain count minus Results() count = %d", c.name, seed, dl, k)
				}
			}
			if err := pq.Verify(); err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
		}
	}
}

// TestInsertID checks the non-chaining insert returns usable ids.
func TestInsertID(t *testing.T) {
	pq, err := New(Seap, Options{Nodes: 2, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	id1 := pq.At(0).InsertID(7, "first")
	id2 := pq.At(1).InsertID(3, "second")
	if id1 == id2 || id1 == 0 || id2 == 0 {
		t.Fatalf("ids not unique: %d, %d", id1, id2)
	}
	pq.At(0).DeleteMin()
	got, err := pq.Drain()
	if err != nil || len(got) != 1 || got[0].ID != id2 {
		t.Fatalf("delete must return the id of the higher-priority insert: %+v, %v", got, err)
	}
}

func TestAtHostRangeChecked(t *testing.T) {
	pq, _ := New(Seap, Options{Nodes: 2, Seed: 61})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pq.At(2)
}
