package dpq

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

func runQueue(t *testing.T, eng *sim.SyncEngine, done func() bool) {
	t.Helper()
	if !eng.RunUntil(done, 50000) {
		t.Fatal("protocol stuck")
	}
}

func TestQueueFIFOSingleNode(t *testing.T) {
	q := NewQueue(4, 1)
	eng := q.NewSyncEngine()
	for i := 1; i <= 5; i++ {
		q.Enqueue(0, prio.ElemID(i), "")
	}
	runQueue(t, eng, q.Done)
	for i := 0; i < 5; i++ {
		q.Dequeue(1)
	}
	runQueue(t, eng, q.Done)
	if rep := CheckQueue(q.Trace()); !rep.Ok() {
		t.Fatalf("queue semantics:\n%s", rep.Error())
	}
	// Dequeues return 1..5 in order of serialization value.
	var results []prio.ElemID
	ops := q.Trace().Ops()
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].Value < ops[j-1].Value; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	for _, op := range ops {
		if op.Kind == semantics.DeleteMin {
			results = append(results, op.Result.ID)
		}
	}
	for i, id := range results {
		if id != prio.ElemID(i+1) {
			t.Fatalf("FIFO order violated: %v", results)
		}
	}
}

func TestQueueMultiNode(t *testing.T) {
	q := NewQueue(8, 2)
	eng := q.NewSyncEngine()
	rnd := hashutil.NewRand(3)
	id := prio.ElemID(1)
	for i := 0; i < 60; i++ {
		if rnd.Bool(0.6) {
			q.Enqueue(rnd.Intn(8), id, "")
			id++
		} else {
			q.Dequeue(rnd.Intn(8))
		}
	}
	runQueue(t, eng, q.Done)
	if rep := CheckQueue(q.Trace()); !rep.Ok() {
		t.Fatalf("queue semantics:\n%s", rep.Error())
	}
}

func TestStackLIFOSingleNode(t *testing.T) {
	s := NewStack(4, 4)
	eng := s.NewSyncEngine()
	for i := 1; i <= 5; i++ {
		s.Push(0, prio.ElemID(i), "")
	}
	runQueue(t, eng, s.Done)
	s.Pop(1)
	runQueue(t, eng, s.Done)
	for _, op := range s.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && op.Result.ID != 5 {
			t.Fatalf("pop returned %v, want the newest element", op.Result)
		}
	}
	if rep := CheckStack(s.Trace()); !rep.Ok() {
		t.Fatalf("stack semantics:\n%s", rep.Error())
	}
}

func TestStackInterleaved(t *testing.T) {
	s := NewStack(4, 5)
	eng := s.NewSyncEngine()
	// Push 1,2; pop (→2); push 3; pop (→3); pop (→1) — all at one node so
	// the local order pins the serialization.
	s.Push(0, 1, "")
	s.Push(0, 2, "")
	runQueue(t, eng, s.Done)
	s.Pop(0)
	runQueue(t, eng, s.Done)
	s.Push(0, 3, "")
	runQueue(t, eng, s.Done)
	s.Pop(0)
	runQueue(t, eng, s.Done)
	s.Pop(0)
	runQueue(t, eng, s.Done)
	var results []prio.ElemID
	for _, op := range s.Trace().Ops() {
		if op.Kind == semantics.DeleteMin {
			results = append(results, op.Result.ID)
		}
	}
	want := []prio.ElemID{2, 3, 1}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("pop sequence %v, want %v", results, want)
		}
	}
	if rep := CheckStack(s.Trace()); !rep.Ok() {
		t.Fatalf("stack semantics:\n%s", rep.Error())
	}
}

func TestStackMultiNode(t *testing.T) {
	s := NewStack(6, 6)
	eng := s.NewSyncEngine()
	rnd := hashutil.NewRand(7)
	id := prio.ElemID(1)
	for i := 0; i < 50; i++ {
		if rnd.Bool(0.6) {
			s.Push(rnd.Intn(6), id, "")
			id++
		} else {
			s.Pop(rnd.Intn(6))
		}
	}
	runQueue(t, eng, s.Done)
	if rep := CheckStack(s.Trace()); !rep.Ok() {
		t.Fatalf("stack semantics:\n%s", rep.Error())
	}
}

func TestEmptyDequeuePop(t *testing.T) {
	q := NewQueue(2, 8)
	eng := q.NewSyncEngine()
	q.Dequeue(0)
	runQueue(t, eng, q.Done)
	for _, op := range q.Trace().Ops() {
		if !op.Result.Nil() {
			t.Fatal("dequeue on empty queue must return ⊥")
		}
	}
	s := NewStack(2, 9)
	engS := s.NewSyncEngine()
	s.Pop(0)
	runQueue(t, engS, s.Done)
	for _, op := range s.Trace().Ops() {
		if !op.Result.Nil() {
			t.Fatal("pop on empty stack must return ⊥")
		}
	}
}
