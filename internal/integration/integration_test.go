// Package integration exercises whole-system scenarios across protocol
// boundaries: Skeap and Seap over identical workloads, long soaks with
// alternating grow/shrink waves, determinism across runs, and the public
// facade end to end.
package integration

import (
	"sort"
	"testing"

	"dpq"
	"dpq/internal/hashutil"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/skeap"
)

func maxRounds(n int) int { return 20000 * (mathx.Log2Ceil(n) + 3) }

// TestSkeapSeapAgreeOnDistinctPriorities: with all priorities distinct and
// a full drain, both protocols must emit the same globally sorted element
// sequence — the protocols differ in semantics and cost, not in what a
// fully drained heap contains.
func TestSkeapSeapAgreeOnDistinctPriorities(t *testing.T) {
	const n = 6
	const m = 30
	perm := hashutil.NewRand(900).Perm(m)

	drainSkeap := func() []prio.ElemID {
		h := skeap.New(skeap.Config{N: n, P: 32, Seed: 901})
		eng := h.NewSyncEngine()
		for i, p := range perm {
			h.InjectInsert(i%n, prio.ElemID(i+1), p, "")
		}
		if !eng.RunUntil(h.Done, maxRounds(n)) {
			t.Fatal("skeap inserts stuck")
		}
		for i := 0; i < m; i++ {
			h.InjectDelete(i % n)
		}
		if !eng.RunUntil(h.Done, maxRounds(n)) {
			t.Fatal("skeap drain stuck")
		}
		return drainOrder(h.Trace())
	}
	drainSeap := func() []prio.ElemID {
		h := seap.New(seap.Config{N: n, PrioBound: 64, Seed: 902})
		eng := h.NewSyncEngine()
		for i, p := range perm {
			h.InjectInsert(i%n, prio.ElemID(i+1), uint64(p)+1, "")
		}
		if !eng.RunUntil(h.Done, maxRounds(n)) {
			t.Fatal("seap inserts stuck")
		}
		for i := 0; i < m; i++ {
			h.InjectDelete(i % n)
		}
		if !eng.RunUntil(h.Done, maxRounds(n)) {
			t.Fatal("seap drain stuck")
		}
		return drainOrder(h.Trace())
	}

	a, b := drainSkeap(), drainSeap()
	if len(a) != m || len(b) != m {
		t.Fatalf("drain lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("protocols disagree at %d: skeap %v, seap %v", i, a, b)
		}
	}
}

// drainOrder returns the ids returned by DeleteMin in serialization order.
func drainOrder(tr *semantics.Trace) []prio.ElemID {
	ops := tr.Ops()
	sort.Slice(ops, func(i, j int) bool { return ops[i].Value < ops[j].Value })
	var out []prio.ElemID
	for _, op := range ops {
		if op.Kind == semantics.DeleteMin {
			if op.Result.Nil() {
				continue
			}
			out = append(out, op.Result.ID)
		}
	}
	return out
}

// TestLongSoakSkeap: many alternating grow/shrink waves over one engine,
// with semantics checked after each wave.
func TestLongSoakSkeap(t *testing.T) {
	h := skeap.New(skeap.Config{N: 10, P: 5, Seed: 910})
	eng := h.NewSyncEngine()
	rnd := hashutil.NewRand(911)
	id := prio.ElemID(1)
	for wave := 0; wave < 8; wave++ {
		grow := wave%2 == 0
		for i := 0; i < 25; i++ {
			host := rnd.Intn(10)
			if (grow && rnd.Bool(0.8)) || (!grow && rnd.Bool(0.2)) {
				h.InjectInsert(host, id, rnd.Intn(5), "")
				id++
			} else {
				h.InjectDelete(host)
			}
		}
		if !eng.RunUntil(h.Done, maxRounds(10)) {
			t.Fatalf("wave %d stuck", wave)
		}
		if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
			t.Fatalf("wave %d:\n%s", wave, rep.Error())
		}
	}
	if h.Trace().Len() != 200 {
		t.Fatalf("processed %d ops", h.Trace().Len())
	}
}

// TestLongSoakSeap mirrors the soak for Seap with wide priorities.
func TestLongSoakSeap(t *testing.T) {
	h := seap.New(seap.Config{N: 8, PrioBound: 1 << 24, Seed: 920})
	eng := h.NewSyncEngine()
	rnd := hashutil.NewRand(921)
	id := prio.ElemID(1)
	for wave := 0; wave < 6; wave++ {
		for i := 0; i < 20; i++ {
			host := rnd.Intn(8)
			if rnd.Bool(0.6) {
				h.InjectInsert(host, id, rnd.Uint64n(1<<24)+1, "")
				id++
			} else {
				h.InjectDelete(host)
			}
		}
		if !eng.RunUntil(h.Done, maxRounds(8)) {
			t.Fatalf("wave %d stuck", wave)
		}
	}
	if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("soak semantics:\n%s", rep.Error())
	}
}

// TestDeterministicTraces: identical seeds produce identical serialization
// values and results, end to end.
func TestDeterministicTraces(t *testing.T) {
	run := func() map[int64]prio.ElemID {
		h := seap.New(seap.Config{N: 5, PrioBound: 1000, Seed: 930})
		eng := h.NewSyncEngine()
		rnd := hashutil.NewRand(931)
		id := prio.ElemID(1)
		for i := 0; i < 40; i++ {
			if rnd.Bool(0.6) {
				h.InjectInsert(rnd.Intn(5), id, rnd.Uint64n(1000)+1, "")
				id++
			} else {
				h.InjectDelete(rnd.Intn(5))
			}
		}
		if !eng.RunUntil(h.Done, maxRounds(5)) {
			t.Fatal("run stuck")
		}
		out := map[int64]prio.ElemID{}
		for _, op := range h.Trace().Ops() {
			out[op.Value] = op.Result.ID
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic trace size")
	}
	for v, id := range a {
		if b[v] != id {
			t.Fatalf("value %d: %d vs %d", v, id, b[v])
		}
	}
}

// TestFacadeMixedProtocolsSideBySide drives two facades in one test, as an
// application embedding both would.
func TestFacadeMixedProtocolsSideBySide(t *testing.T) {
	sk, err := dpq.New(dpq.Skeap, dpq.Options{Nodes: 4, Priorities: 2, Seed: 950})
	if err != nil {
		t.Fatal(err)
	}
	se, err := dpq.New(dpq.Seap, dpq.Options{Nodes: 4, Seed: 951})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sk.At(i%4).Insert(uint64(i%2)+1, "")
		se.At(i%4).Insert(uint64(i*37+1), "")
	}
	if _, err := sk.Drain(); err != nil {
		t.Fatalf("skeap batch: %v", err)
	}
	if _, err := se.Drain(); err != nil {
		t.Fatalf("seap batch: %v", err)
	}
	for i := 0; i < 10; i++ {
		sk.At(i % 4).DeleteMin()
		se.At(i % 4).DeleteMin()
	}
	if _, err := sk.Drain(); err != nil {
		t.Fatalf("skeap drain: %v", err)
	}
	if _, err := se.Drain(); err != nil {
		t.Fatalf("seap drain: %v", err)
	}
	if err := sk.Verify(); err != nil {
		t.Fatalf("skeap facade: %v", err)
	}
	if err := se.Verify(); err != nil {
		t.Fatalf("seap facade: %v", err)
	}
}
