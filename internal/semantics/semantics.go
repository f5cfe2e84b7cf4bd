// Package semantics records distributed executions and verifies the
// paper's correctness definitions:
//
//   - serializability and sequential consistency (Definition 1.1), and
//   - heap consistency (Definition 1.2, properties (1)–(3)),
//
// in two independent ways: by replaying the protocol's serialization order
// ≺ against a sequential binary-heap oracle (the executions must be
// equivalent), and by checking the three heap-consistency properties
// directly on the matching M.
package semantics

import (
	"fmt"
	"sort"
	"sync"

	"dpq/internal/prio"
	"dpq/internal/seqheap"
)

// OpKind distinguishes the two heap operations.
type OpKind int

// Heap operation kinds.
const (
	Insert OpKind = iota
	DeleteMin
)

func (k OpKind) String() string {
	if k == Insert {
		return "Insert"
	}
	return "DeleteMin"
}

// Op records one issued operation OP_{v,i}.
type Op struct {
	Node  int    // issuing real process v
	Index int    // i: per-process issue sequence, starting at 1
	Kind  OpKind // Insert or DeleteMin

	Elem   prio.Element // Insert: the inserted element
	Result prio.Element // DeleteMin: the returned element, or ⊥
	Done   bool         // the operation completed

	// Value is the protocol-assigned position in the serialization order
	// ≺ (§3.3 / Lemma 5.2). Values must be unique across all operations.
	Value int64
}

// Trace collects operations across all processes. It is safe for
// concurrent use: the network runtime and the serving layer's client
// goroutines share one Trace.
type Trace struct {
	mu         sync.Mutex
	ops        []*Op
	issued     int  // operations issued, recorded or not
	done       int  // operations with Done set; kept by Complete so DoneCount is O(1)
	forget     bool // Issue counts operations without recording them
	byNode     map[int]int
	onComplete func(*Op)
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{byNode: make(map[int]int)}
}

// Issue records the start of an operation at a process and returns the Op
// for later completion.
func (t *Trace) Issue(node int, kind OpKind, elem prio.Element) *Op {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byNode[node]++
	t.issued++
	op := &Op{Node: node, Index: t.byNode[node], Kind: kind, Elem: elem}
	if !t.forget {
		t.ops = append(t.ops, op)
	}
	return op
}

// Forget makes the trace keep counts, not operations: from now on Issue
// returns an Op without recording it, so the trace's memory stays flat
// however many operations pass through it. Len, DoneCount and the
// completion callback stay exact; Ops, Stored, Drained, PendingSet and
// the checkers see only the operations recorded before. A serving daemon,
// which reads nothing else, forgets; simulations and tests do not.
func (t *Trace) Forget() {
	t.mu.Lock()
	t.forget = true
	t.mu.Unlock()
}

// Complete marks op done with the given result (⊥ for an empty-heap
// DeleteMin; ignored for Insert) and its serialization value. An installed
// completion callback fires after the trace lock is released. Completing
// the same operation again overwrites its result and counts it done once.
func (t *Trace) Complete(op *Op, result prio.Element, value int64) {
	t.mu.Lock()
	op.Result = result
	op.Value = value
	if !op.Done {
		op.Done = true
		t.done++
	}
	cb := t.onComplete
	t.mu.Unlock()
	if cb != nil {
		cb(op)
	}
}

// SetOnComplete installs a callback invoked after every Complete, outside
// the trace lock. The network daemon uses it to answer a client as soon as
// its operation's result is known; nil detaches.
func (t *Trace) SetOnComplete(f func(*Op)) {
	t.mu.Lock()
	t.onComplete = f
	t.mu.Unlock()
}

// Merge combines per-process traces into one for the global checkers. The
// inputs must cover disjoint issuing processes (as the network runtime's
// shards do); serialization values are protocol-assigned and globally
// unique, so concatenating the snapshots preserves every property the
// checkers inspect.
func Merge(traces ...*Trace) *Trace {
	out := NewTrace()
	for _, t := range traces {
		for _, op := range t.Ops() {
			if op.Index > out.byNode[op.Node] {
				out.byNode[op.Node] = op.Index
			}
			out.ops = append(out.ops, op)
			out.issued++
			if op.Done {
				out.done++
			}
		}
	}
	return out
}

// Ops returns a snapshot of all recorded operations.
func (t *Trace) Ops() []*Op {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Op(nil), t.ops...)
}

// Len returns the number of issued operations.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.issued
}

// DoneCount returns the number of completed operations.
func (t *Trace) DoneCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Stored returns how many elements the completed operations leave in the
// heap: completed inserts minus DeleteMins that returned an element.
func (t *Trace) Stored() int {
	n, _ := t.tally()
	return n
}

// Drained is the conservation predicate of a run whose messages can be
// lost and retried: every operation completed AND the protocol's stores,
// which stored counts (it is only asked once everything completed), hold
// exactly Stored() elements.
//
// Done alone is not enough: an operation can complete before its DHT Put
// lands (phase 4 traffic overlaps the next iteration). Once every operation
// is done, all delete responses have arrived, so Stored() is final and the
// stores can only grow towards it as the last Puts land. Transport idleness
// is not a usable signal instead: with auto-repeat on the anchor pipelines
// iterations, so some message is almost always unacknowledged.
func (t *Trace) Drained(stored func() int) bool {
	n, done := t.tally()
	return done && stored() == n
}

// tally returns Stored's count and whether every operation completed.
func (t *Trace) tally() (stored int, allDone bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	allDone = true
	for _, op := range t.ops {
		switch {
		case !op.Done:
			allDone = false
		case op.Kind == Insert:
			stored++
		case !op.Result.Nil():
			stored--
		}
	}
	return stored, allDone
}

// PendingSet replays the completed operations in serialization order and
// returns the elements still in the heap afterwards: every inserted
// element not returned by a DeleteMin. The serving layer's recovery
// checks compare this trace-derived ground truth against what a WAL
// reconstructs after a crash. Incomplete operations are ignored — an
// insert that never completed was never acknowledged, so durability makes
// no promise about it.
func PendingSet(t *Trace) map[prio.ElemID]prio.Element {
	ops := sortedByValue(t.Ops(), &Report{})
	pending := make(map[prio.ElemID]prio.Element)
	for _, op := range ops {
		switch op.Kind {
		case Insert:
			pending[op.Elem.ID] = op.Elem
		case DeleteMin:
			if !op.Result.Nil() {
				delete(pending, op.Result.ID)
			}
		}
	}
	return pending
}

// Report is the outcome of a semantics check: Ok with an empty Violations
// list, or a description of every violated property.
type Report struct {
	Violations []string
}

// Ok reports whether all checked properties hold.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (r *Report) addf(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Error renders the report for test failures.
func (r *Report) Error() string {
	if r.Ok() {
		return "<ok>"
	}
	s := ""
	for _, v := range r.Violations {
		s += v + "\n"
	}
	return s
}

// sortedByValue returns completed ops sorted by serialization value,
// reporting duplicates and incomplete operations.
func sortedByValue(ops []*Op, rep *Report) []*Op {
	sorted := make([]*Op, 0, len(ops))
	for _, op := range ops {
		if !op.Done {
			rep.addf("operation %v_%d,%d never completed", op.Kind, op.Node, op.Index)
			continue
		}
		sorted = append(sorted, op)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Value < sorted[j].Value })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Value == sorted[i-1].Value {
			rep.addf("duplicate serialization value %d", sorted[i].Value)
		}
	}
	return sorted
}

// Tiebreak selects the total order a protocol establishes among elements
// of equal priority (§1.2 leaves the tiebreaker abstract): Skeap matches
// equal priorities in insertion order (positions grow FIFO per priority),
// while Seap/KSelect order by element id.
type Tiebreak int

// Tiebreak rules.
const (
	FIFO Tiebreak = iota // equal priorities leave in ≺-insertion order
	ByID                 // equal priorities leave in element-id order
)

// CheckSerializability replays ≺ against the sequential heap oracle: the
// distributed execution is serializable w.r.t. ≺ iff every DeleteMin
// returned exactly the element the serial execution returns (including ⊥).
// Since the serial heap execution trivially satisfies Definition 1.2, a
// passing replay also establishes heap consistency of the protocol's
// matching.
func CheckSerializability(t *Trace, tb Tiebreak) *Report {
	return checkSerialOrder(t, tb, false)
}

// CheckSerializabilityMax is the MaxHeap variant (§1.2: property (3)
// inverted): the oracle pops the *largest* priority first.
func CheckSerializabilityMax(t *Trace, tb Tiebreak) *Report {
	return checkSerialOrder(t, tb, true)
}

func checkSerialOrder(t *Trace, tb Tiebreak, inverted bool) *Report {
	rep := &Report{}
	ops := sortedByValue(t.Ops(), rep)
	// The oracle heap orders by (priority, id); under FIFO tiebreak we
	// substitute the ≺-insertion sequence number for the id and map back;
	// under inversion we complement the priority.
	oracle := seqheap.New(len(ops))
	real := map[prio.ElemID]prio.Element{}
	var seq uint64
	for _, op := range ops {
		switch op.Kind {
		case Insert:
			e := op.Elem
			if inverted {
				e.Prio = ^e.Prio
			}
			if tb == FIFO {
				seq++
				shadow := prio.Element{ID: prio.ElemID(seq), Prio: e.Prio}
				real[shadow.ID] = op.Elem
				e = shadow
			} else {
				real[e.ID] = op.Elem
			}
			oracle.Insert(e)
		case DeleteMin:
			want, ok := oracle.DeleteMin()
			if ok {
				want = real[want.ID]
			}
			switch {
			case !ok && !op.Result.Nil():
				rep.addf("Del_%d,%d returned %v but serial heap was empty", op.Node, op.Index, op.Result)
			case ok && op.Result.Nil():
				rep.addf("Del_%d,%d returned ⊥ but serial heap held %v", op.Node, op.Index, want)
			case ok && op.Result != want:
				rep.addf("Del_%d,%d returned %v, serial execution returns %v", op.Node, op.Index, op.Result, want)
			}
		}
	}
	return rep
}

// CheckLocalConsistency verifies OP_{v,i} ≺ OP_{v,i+1} for every process v
// (the extra requirement that upgrades serializability to sequential
// consistency, Definition 1.1).
func CheckLocalConsistency(t *Trace) *Report {
	rep := &Report{}
	last := map[int]*Op{}
	ops := t.Ops()
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Node != ops[j].Node {
			return ops[i].Node < ops[j].Node
		}
		return ops[i].Index < ops[j].Index
	})
	for _, op := range ops {
		if !op.Done {
			rep.addf("operation %v_%d,%d never completed", op.Kind, op.Node, op.Index)
			continue
		}
		if prev, ok := last[op.Node]; ok && prev.Value >= op.Value {
			rep.addf("node %d: OP_%d (value %d) not before OP_%d (value %d)",
				op.Node, prev.Index, prev.Value, op.Index, op.Value)
		}
		last[op.Node] = op
	}
	return rep
}

// CheckSequentialConsistency = serializability + local consistency
// (Definition 1.1).
func CheckSequentialConsistency(t *Trace, tb Tiebreak) *Report {
	rep := CheckSerializability(t, tb)
	rep.Violations = append(rep.Violations, CheckLocalConsistency(t).Violations...)
	return rep
}
