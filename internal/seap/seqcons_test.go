package seap

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// The §6 variant: at most one op per node per phase restores local
// consistency, making Seap sequentially consistent.

func TestSeqConsistentVariantBasic(t *testing.T) {
	h := New(Config{N: 4, PrioBound: 1000, Seed: 600, SeqConsistent: true})
	// Local order at node 0: Del (→⊥, heap empty), Ins, Del (→ own insert).
	h.InjectDelete(0)
	h.InjectInsert(0, 1, 7, "mine")
	h.InjectDelete(0)
	runSync(t, h)
	var results []prio.Element
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin {
			results = append(results, op.Result)
		}
	}
	if !results[0].Nil() || results[1].ID != 1 {
		t.Fatalf("local order not respected: %v", results)
	}
	// Full sequential consistency: serializability + local consistency.
	if rep := semantics.CheckAll(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("sequential consistency violated:\n%s", rep.Error())
	}
}

func TestSeqConsistentRandomWorkload(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		h := New(Config{N: 5, PrioBound: 300, Seed: 610 + seed, SeqConsistent: true})
		randomWorkload(h, 620+seed, 25)
		runSync(t, h)
		if rep := semantics.CheckAll(h.Trace(), semantics.ByID); !rep.Ok() {
			t.Fatalf("seed %d: sequential consistency violated:\n%s", seed, rep.Error())
		}
	}
}

func TestSeqConsistentAsync(t *testing.T) {
	h := New(Config{N: 4, PrioBound: 200, Seed: 630, SeqConsistent: true})
	randomWorkload(h, 631, 18)
	spec := h.Spec(sim.KindAsync)
	spec.MaxDelay = 3.0
	eng := sim.Build(spec)
	if !eng.RunUntil(h.Done, 8_000_000) {
		t.Fatalf("async run incomplete (%d/%d)", h.trace.DoneCount(), h.trace.Len())
	}
	if rep := semantics.CheckAll(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("sequential consistency violated:\n%s", rep.Error())
	}
}

// TestSeqConsistentCostsThroughput: the variant drains a backlog far
// slower than standard Seap — the scalability cost §6 predicts.
func TestSeqConsistentCostsThroughput(t *testing.T) {
	drain := func(sc bool) int {
		h := New(Config{N: 4, PrioBound: 1000, Seed: 640, SeqConsistent: sc})
		rnd := hashutil.NewRand(641)
		id := prio.ElemID(1)
		for i := 0; i < 40; i++ {
			if rnd.Bool(0.7) {
				h.InjectInsert(rnd.Intn(4), id, rnd.Uint64n(1000)+1, "")
				id++
			} else {
				h.InjectDelete(rnd.Intn(4))
			}
		}
		eng := h.NewSyncEngine()
		if !eng.RunUntil(h.Done, 40*maxRounds(4)) {
			t.Fatal("drain incomplete")
		}
		return eng.Metrics().Rounds
	}
	fast := drain(false)
	slow := drain(true)
	if slow <= fast {
		t.Fatalf("expected the sequentially consistent variant to be slower: %d vs %d", slow, fast)
	}
}

// TestStandardSeapNotLocallyConsistent documents why the paper gives up
// local consistency: under standard Seap a node's Del-then-Ins pair is
// reordered (inserts phase before deletes within a cycle).
func TestStandardSeapNotLocallyConsistent(t *testing.T) {
	h := New(Config{N: 2, PrioBound: 100, Seed: 650})
	h.InjectDelete(0)           // issued first …
	h.InjectInsert(0, 1, 5, "") // … but the insert phase runs first
	runSync(t, h)
	var res prio.Element
	for _, op := range h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin {
			res = op.Result
		}
	}
	if res.Nil() {
		t.Skip("schedule did not exhibit the reordering")
	}
	if rep := semantics.CheckLocalConsistency(h.Trace()); rep.Ok() {
		t.Fatal("expected a local-consistency violation in standard Seap")
	}
	// … while serializability still holds (Theorem 5.1).
	if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("serializability must hold:\n%s", rep.Error())
	}
}

// TestSeqConsistentCycleTakesInsertThenDelete: in the §6 variant one count
// takes a node's oldest op if it is an Insert and then the next op if it
// is a DeleteMin. An Insert then a DeleteMin both join one cycle, and the
// delete finds the inserted element; a DeleteMin then an Insert: only the
// DeleteMin joins, and it returns ⊥.
func TestSeqConsistentCycleTakesInsertThenDelete(t *testing.T) {
	for _, insFirst := range []bool{true, false} {
		h := New(Config{N: 1, PrioBound: 100, Seed: 640, SeqConsistent: true})
		h.SetAutoRepeat(false)
		var ins, del *semantics.Op
		if insFirst {
			ins = h.InjectInsert(0, 1, 5, "")
			del = h.InjectDelete(0)
		} else {
			del = h.InjectDelete(0)
			ins = h.InjectInsert(0, 1, 5, "")
		}
		runCycle(t, h, h.NewSyncEngine())
		if !del.Done {
			t.Fatalf("insert first %v: the DeleteMin did not join the cycle", insFirst)
		}
		if ins.Done != insFirst {
			t.Errorf("insert first %v: the Insert joined the cycle: %v, want %v", insFirst, ins.Done, insFirst)
		}
		if got := del.Result; insFirst && got.ID != 1 || !insFirst && !got.Nil() {
			t.Errorf("insert first %v: the DeleteMin returned %v", insFirst, del.Result)
		}
		if !insFirst {
			continue // the oracle checks complete traces only
		}
		if rep := semantics.CheckAll(h.Trace(), semantics.ByID); !rep.Ok() {
			t.Fatalf("sequential consistency violated:\n%s", rep.Error())
		}
	}
}
