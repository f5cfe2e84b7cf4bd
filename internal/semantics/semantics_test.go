package semantics

import (
	"testing"
	"testing/quick"

	"dpq/internal/hashutil"
	"dpq/internal/prio"
	"dpq/internal/seqheap"
)

func elem(id uint64, p uint64) prio.Element {
	return prio.Element{ID: prio.ElemID(id), Prio: prio.Priority(p)}
}

// buildSerialTrace issues ops at a single node and completes them exactly
// as a serial heap with ByID tiebreak would — the canonical passing trace.
func buildSerialTrace(prios []uint64, delAt map[int]bool) *Trace {
	tr := NewTrace()
	oracle := seqheap.New(8)
	value := int64(1)
	id := uint64(1)
	for i, p := range prios {
		if delAt[i] {
			op := tr.Issue(0, DeleteMin, prio.Element{})
			res, ok := oracle.DeleteMin()
			if !ok {
				res = prio.Element{}
			}
			tr.Complete(op, res, value)
		} else {
			e := elem(id, p)
			id++
			op := tr.Issue(0, Insert, e)
			oracle.Insert(e)
			tr.Complete(op, prio.Element{}, value)
		}
		value++
	}
	return tr
}

func TestSerialTracePasses(t *testing.T) {
	tr := buildSerialTrace([]uint64{5, 3, 0, 7, 0, 0, 0}, map[int]bool{2: true, 4: true, 5: true, 6: true})
	if rep := CheckAll(tr, ByID); !rep.Ok() {
		t.Fatalf("serial trace must pass:\n%s", rep.Error())
	}
}

func TestWrongElementDetected(t *testing.T) {
	tr := NewTrace()
	a, b := elem(1, 5), elem(2, 3)
	op1 := tr.Issue(0, Insert, a)
	tr.Complete(op1, prio.Element{}, 1)
	op2 := tr.Issue(0, Insert, b)
	tr.Complete(op2, prio.Element{}, 2)
	del := tr.Issue(1, DeleteMin, prio.Element{})
	tr.Complete(del, a, 3) // wrong: b has smaller priority
	if rep := CheckSerializability(tr, ByID); rep.Ok() {
		t.Fatal("returning the wrong minimum must be detected")
	}
}

func TestBottomWithNonEmptyHeapDetected(t *testing.T) {
	tr := NewTrace()
	op1 := tr.Issue(0, Insert, elem(1, 1))
	tr.Complete(op1, prio.Element{}, 1)
	del := tr.Issue(0, DeleteMin, prio.Element{})
	tr.Complete(del, prio.Element{}, 2) // ⊥ despite a stored element
	if rep := CheckSerializability(tr, ByID); rep.Ok() {
		t.Fatal("⊥ on a non-empty heap must be detected")
	}
	// Note: Definition 1.2's properties quantify over matched pairs and
	// are vacuously true on this trace (no pair exists) — this is exactly
	// why the oracle replay complements the direct property check.
	if rep := CheckHeapConsistency(tr); !rep.Ok() {
		t.Fatalf("direct check should be vacuous here:\n%s", rep.Error())
	}
}

func TestDeleteBeforeInsertDetected(t *testing.T) {
	tr := NewTrace()
	e := elem(1, 1)
	del := tr.Issue(0, DeleteMin, prio.Element{})
	tr.Complete(del, e, 1) // matched pair with Del ≺ Ins
	ins := tr.Issue(0, Insert, e)
	tr.Complete(ins, prio.Element{}, 2)
	if rep := CheckHeapConsistency(tr); rep.Ok() {
		t.Fatal("property 1 violation must be detected")
	}
	if rep := CheckSerializability(tr, ByID); rep.Ok() {
		t.Fatal("replay must also fail")
	}
}

func TestLocalConsistencyViolationDetected(t *testing.T) {
	tr := NewTrace()
	op1 := tr.Issue(0, Insert, elem(1, 1))
	op2 := tr.Issue(0, Insert, elem(2, 2))
	tr.Complete(op1, prio.Element{}, 10) // later value than op2
	tr.Complete(op2, prio.Element{}, 5)
	if rep := CheckLocalConsistency(tr); rep.Ok() {
		t.Fatal("local order inversion must be detected")
	}
	// But it is still serializable.
	if rep := CheckSerializability(tr, ByID); !rep.Ok() {
		t.Fatalf("pure inserts serialize fine:\n%s", rep.Error())
	}
}

func TestDoubleReturnDetected(t *testing.T) {
	tr := NewTrace()
	e := elem(1, 1)
	ins := tr.Issue(0, Insert, e)
	tr.Complete(ins, prio.Element{}, 1)
	d1 := tr.Issue(0, DeleteMin, prio.Element{})
	tr.Complete(d1, e, 2)
	d2 := tr.Issue(1, DeleteMin, prio.Element{})
	tr.Complete(d2, e, 3)
	if rep := CheckHeapConsistency(tr); rep.Ok() {
		t.Fatal("double return must be detected")
	}
}

func TestPhantomElementDetected(t *testing.T) {
	tr := NewTrace()
	d := tr.Issue(0, DeleteMin, prio.Element{})
	tr.Complete(d, elem(9, 9), 1)
	if rep := CheckHeapConsistency(tr); rep.Ok() {
		t.Fatal("returning a never-inserted element must be detected")
	}
}

func TestIncompleteOpDetected(t *testing.T) {
	tr := NewTrace()
	tr.Issue(0, Insert, elem(1, 1))
	if rep := CheckSerializability(tr, ByID); rep.Ok() {
		t.Fatal("incomplete operations must be reported")
	}
}

func TestDuplicateValuesDetected(t *testing.T) {
	tr := NewTrace()
	op1 := tr.Issue(0, Insert, elem(1, 1))
	op2 := tr.Issue(1, Insert, elem(2, 1))
	tr.Complete(op1, prio.Element{}, 7)
	tr.Complete(op2, prio.Element{}, 7)
	if rep := CheckSerializability(tr, ByID); rep.Ok() {
		t.Fatal("duplicate serialization values must be reported")
	}
}

func TestFIFOTiebreak(t *testing.T) {
	// Two elements with equal priority: FIFO expects the earlier insert
	// back first even when its id is larger.
	tr := NewTrace()
	first, second := elem(9, 4), elem(2, 4)
	i1 := tr.Issue(0, Insert, first)
	tr.Complete(i1, prio.Element{}, 1)
	i2 := tr.Issue(0, Insert, second)
	tr.Complete(i2, prio.Element{}, 2)
	d1 := tr.Issue(0, DeleteMin, prio.Element{})
	tr.Complete(d1, first, 3)
	d2 := tr.Issue(0, DeleteMin, prio.Element{})
	tr.Complete(d2, second, 4)
	if rep := CheckAll(tr, FIFO); !rep.Ok() {
		t.Fatalf("FIFO trace must pass under FIFO tiebreak:\n%s", rep.Error())
	}
	if rep := CheckSerializability(tr, ByID); rep.Ok() {
		t.Fatal("FIFO trace must fail under ByID tiebreak")
	}
}

func TestUnmatchedSmallerInsertDetected(t *testing.T) {
	// Property 3: an element with smaller priority stays while a larger
	// one is returned.
	tr := NewTrace()
	small, big := elem(1, 1), elem(2, 9)
	i1 := tr.Issue(0, Insert, small)
	tr.Complete(i1, prio.Element{}, 1)
	i2 := tr.Issue(0, Insert, big)
	tr.Complete(i2, prio.Element{}, 2)
	d := tr.Issue(0, DeleteMin, prio.Element{})
	tr.Complete(d, big, 3)
	if rep := CheckHeapConsistency(tr); rep.Ok() {
		t.Fatal("property 3 violation must be detected")
	}
}

func TestMatchingPartition(t *testing.T) {
	tr := buildSerialTrace([]uint64{1, 2, 0, 3}, map[int]bool{2: true})
	rep := &Report{}
	m := BuildMatching(tr, rep)
	if !rep.Ok() {
		t.Fatalf("matching errors: %s", rep.Error())
	}
	if len(m.Pairs) != 1 || len(m.UnmatchedIns) != 2 || len(m.UnmatchedDel) != 0 {
		t.Fatalf("matching %+v", m)
	}
}

// TestRandomSerialTracesPass: any trace generated by an actual serial heap
// execution must satisfy every checker (soundness of the checkers).
func TestRandomSerialTracesPass(t *testing.T) {
	f := func(seed uint64, script []byte) bool {
		r := hashutil.NewRand(seed)
		var prios []uint64
		delAt := map[int]bool{}
		for i, b := range script {
			if b%3 == 0 {
				delAt[i] = true
				prios = append(prios, 0)
			} else {
				prios = append(prios, r.Uint64n(4))
			}
		}
		tr := buildSerialTrace(prios, delAt)
		return CheckAll(tr, ByID).Ok()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomCorruptionCaught: flipping one delete's result in a serial
// trace with distinct priorities must be caught by the replay checker.
func TestRandomCorruptionCaught(t *testing.T) {
	tr := NewTrace()
	// Insert 1..6 with distinct priorities, delete three.
	var value int64 = 1
	for i := uint64(1); i <= 6; i++ {
		op := tr.Issue(0, Insert, elem(i, i))
		tr.Complete(op, prio.Element{}, value)
		value++
	}
	results := []prio.Element{elem(1, 1), elem(3, 3), elem(2, 2)} // 2nd and 3rd swapped
	for _, res := range results {
		op := tr.Issue(0, DeleteMin, prio.Element{})
		tr.Complete(op, res, value)
		value++
	}
	if rep := CheckSerializability(tr, ByID); rep.Ok() {
		t.Fatal("swapped results must be detected")
	}
}

func TestTraceConcurrencySafe(t *testing.T) {
	tr := NewTrace()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				op := tr.Issue(g, Insert, elem(uint64(g*1000+i+1), 1))
				tr.Complete(op, prio.Element{}, int64(g*1000+i+1))
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if tr.Len() != 800 || tr.DoneCount() != 800 {
		t.Fatalf("len=%d done=%d", tr.Len(), tr.DoneCount())
	}
}

// TestDoneCountCountsAnOpOnce: DoneCount is a counter, so completing the
// same operation again (a re-execution after a reset) and merging traces
// must both leave it equal to a scan.
func TestDoneCountCountsAnOpOnce(t *testing.T) {
	tr := NewTrace()
	a := tr.Issue(0, Insert, elem(1, 1))
	tr.Issue(1, DeleteMin, prio.Element{})
	tr.Complete(a, prio.Element{}, 1)
	tr.Complete(a, prio.Element{}, 2)
	if tr.DoneCount() != 1 || tr.Len() != 2 {
		t.Fatalf("done=%d len=%d, want 1 and 2", tr.DoneCount(), tr.Len())
	}
	if m := Merge(tr, NewTrace()); m.DoneCount() != 1 || m.Len() != 2 {
		t.Fatalf("merged: done=%d len=%d, want 1 and 2", m.DoneCount(), m.Len())
	}
}

// TestDrained pins the conservation predicate: stored must equal completed
// inserts minus matched deletes, and only once nothing is outstanding.
func TestDrained(t *testing.T) {
	tr := NewTrace()
	holding := func(n int) func() int { return func() int { return n } }
	if !tr.Drained(holding(0)) || tr.Stored() != 0 {
		t.Fatal("an empty trace is drained with nothing stored")
	}
	ins1 := tr.Issue(0, Insert, elem(1, 5))
	ins2 := tr.Issue(1, Insert, elem(2, 3))
	tr.Complete(ins1, prio.Element{}, 1)
	if tr.Stored() != 1 {
		t.Fatalf("stored=%d after one completed insert", tr.Stored())
	}
	if tr.Drained(holding(1)) {
		t.Fatal("drained with an insert outstanding")
	}
	tr.Complete(ins2, prio.Element{}, 2)
	if tr.Drained(holding(1)) {
		t.Fatal("drained while a completed insert's Put has not landed")
	}
	if !tr.Drained(holding(2)) {
		t.Fatal("both inserts stored: drained")
	}
	hit := tr.Issue(0, DeleteMin, prio.Element{})
	if tr.Drained(holding(2)) {
		t.Fatal("drained with a delete outstanding")
	}
	tr.Complete(hit, elem(2, 3), 3)
	miss := tr.Issue(1, DeleteMin, prio.Element{})
	tr.Complete(miss, prio.Element{}, 4) // ⊥ removes nothing
	if tr.Stored() != 1 || !tr.Drained(holding(1)) || tr.Drained(holding(2)) {
		t.Fatalf("stored=%d drained(1)=%v drained(2)=%v", tr.Stored(), tr.Drained(holding(1)), tr.Drained(holding(2)))
	}
}

// TestTraceForget: a forgetting trace counts what it no longer records.
func TestTraceForget(t *testing.T) {
	tr := NewTrace()
	kept := tr.Issue(0, Insert, prio.Element{ID: 1, Prio: 1})
	tr.Complete(kept, prio.Element{}, 1)
	tr.Forget()
	var called int
	tr.SetOnComplete(func(*Op) { called++ })
	for i := 0; i < 5; i++ {
		op := tr.Issue(1, DeleteMin, prio.Element{})
		if op.Index != i+1 {
			t.Fatalf("op %d has index %d", i, op.Index)
		}
		if i < 4 {
			tr.Complete(op, prio.Element{}, int64(10+i))
		}
	}
	if tr.Len() != 6 || tr.DoneCount() != 5 || called != 4 {
		t.Fatalf("Len %d DoneCount %d callbacks %d, want 6 5 4", tr.Len(), tr.DoneCount(), called)
	}
	if ops := tr.Ops(); len(ops) != 1 || ops[0] != kept {
		t.Fatalf("recorded %d ops, want only the one issued before Forget", len(ops))
	}
}
