package dpq

import (
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// Queue is the sequentially consistent distributed FIFO queue (Skueue).
//
// Skueue — the distributed queue of [FSS18a] that Skeap extends (§1.3,
// §3) — and its stack variant [FSS18b] are Skeap instantiated with a
// single priority. With one priority the anchor's interval bookkeeping
// degenerates to a pair (first, last): enqueues append at last+1 and
// dequeues consume from first (FIFO) or from last (LIFO), which is
// exactly Skueue's position-assignment scheme.
type Queue struct {
	h *skeap.Heap
}

// NewQueue builds a distributed queue over n processes.
func NewQueue(n int, seed uint64) *Queue {
	return &Queue{h: skeap.New(skeap.Config{N: n, P: 1, Seed: seed})}
}

// Enqueue buffers an enqueue of the element at the given process.
func (q *Queue) Enqueue(host int, id prio.ElemID, payload string) {
	q.h.InjectInsert(host, id, 0, payload)
}

// Dequeue buffers a dequeue at the given process.
func (q *Queue) Dequeue(host int) { q.h.InjectDelete(host) }

// Heap exposes the underlying Skeap instance (engines, traces, metrics).
func (q *Queue) Heap() *skeap.Heap { return q.h }

// Trace returns the execution trace.
func (q *Queue) Trace() *semantics.Trace { return q.h.Trace() }

// Done reports whether every operation completed.
func (q *Queue) Done() bool { return q.h.Done() }

// NewSyncEngine wires the queue into a synchronous engine.
func (q *Queue) NewSyncEngine() *sim.SyncEngine { return q.h.NewSyncEngine() }

// Stack is the sequentially consistent distributed LIFO stack.
type Stack struct {
	h *skeap.Heap
}

// NewStack builds a distributed stack over n processes.
func NewStack(n int, seed uint64) *Stack {
	return &Stack{h: skeap.New(skeap.Config{N: n, P: 1, Seed: seed, LIFO: true})}
}

// Push buffers a push of the element at the given process.
func (s *Stack) Push(host int, id prio.ElemID, payload string) {
	s.h.InjectInsert(host, id, 0, payload)
}

// Pop buffers a pop at the given process.
func (s *Stack) Pop(host int) { s.h.InjectDelete(host) }

// Heap exposes the underlying Skeap instance.
func (s *Stack) Heap() *skeap.Heap { return s.h }

// Trace returns the execution trace.
func (s *Stack) Trace() *semantics.Trace { return s.h.Trace() }

// Done reports whether every operation completed.
func (s *Stack) Done() bool { return s.h.Done() }

// NewSyncEngine wires the stack into a synchronous engine.
func (s *Stack) NewSyncEngine() *sim.SyncEngine { return s.h.NewSyncEngine() }

// CheckQueue verifies a queue trace against sequential FIFO semantics: it
// replays the serialization order against a sequential queue oracle.
func CheckQueue(t *semantics.Trace) *semantics.Report {
	// A single-priority min-heap with FIFO tiebreak IS a queue: reuse the
	// full battery.
	return semantics.CheckAll(t, semantics.FIFO)
}

// CheckStack verifies a stack trace against sequential LIFO semantics: it
// replays the serialization order against a sequential stack oracle, plus
// local consistency.
func CheckStack(t *semantics.Trace) *semantics.Report {
	rep := replayStack(t)
	rep.Violations = append(rep.Violations, semantics.CheckLocalConsistency(t).Violations...)
	return rep
}

// replayStack replays ≺ against a slice-backed stack.
func replayStack(t *semantics.Trace) *semantics.Report {
	rep := &semantics.Report{}
	ops := t.Ops()
	// Sort by serialization value.
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].Value < ops[j-1].Value; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	var stack []prio.Element
	for _, op := range ops {
		if !op.Done {
			rep.Violations = append(rep.Violations, "incomplete operation in stack trace")
			continue
		}
		switch op.Kind {
		case semantics.Insert:
			stack = append(stack, op.Elem)
		case semantics.DeleteMin:
			if len(stack) == 0 {
				if !op.Result.Nil() {
					rep.Violations = append(rep.Violations, "pop on empty stack returned an element")
				}
				continue
			}
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if op.Result != want {
				rep.Violations = append(rep.Violations,
					"pop returned "+op.Result.String()+", serial stack returns "+want.String())
			}
		}
	}
	return rep
}
