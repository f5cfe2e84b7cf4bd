package harness

// The baselines the paper's scalability claims are measured against:
//
//   - centralHeap (this file): the obvious non-batching design — every
//     operation is sent to a single coordinator holding a sequential
//     heap. It is trivially sequentially consistent but its coordinator
//     handles Θ(nΛ) messages per round (the bottleneck §1 and §1.3 argue
//     against).
//   - gather-all selection (selectbaseline.go): k-selection by
//     aggregating every element to the anchor — correct in O(log n)
//     rounds but with Θ(m log n)-bit messages near the root, violating
//     KSelect's O(log n)-bit budget.
//   - binary-search selection (selectbaseline.go): k-selection by binary
//     search over the priority domain with count aggregations — O(log
//     n)-bit messages but Θ(log(n^q)) = Θ(q log n) aggregation phases
//     versus KSelect's O(1) per phase (the generic-algorithm regime of
//     Kuhn et al. discussed in §1.3).

import (
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/seqheap"
	"dpq/internal/sim"
)

// opMsg carries one heap operation to the coordinator.
type opMsg struct {
	Kind  semantics.OpKind
	Elem  prio.Element
	ReqID uint64
}

// Bits accounts the element and a request id.
func (m *opMsg) Bits() int { return 8 + m.Elem.Bits() + 64 }

// resultMsg answers a DeleteMin (or acknowledges an Insert), carrying the
// coordinator-assigned serialization value for the trace.
type resultMsg struct {
	ReqID uint64
	Elem  prio.Element
	Value int64
}

// Bits accounts the element, the request id and the value.
func (m *resultMsg) Bits() int { return 64 + m.Elem.Bits() + 64 }

// centralHeap is a distributed priority queue in which every process
// forwards each operation, one message per operation, to a fixed
// coordinator that owns a sequential binary heap.
type centralHeap struct {
	n           int
	coordinator sim.NodeID
	trace       *semantics.Trace
	nodes       []*centralNode
}

type centralReq struct {
	op *semantics.Op
}

type centralNode struct {
	h *centralHeap
	// coordinator state
	heap  *seqheap.Heap
	value int64
	// requester state
	pending map[uint64]centralReq
	nextReq uint64
	outbox  []*opMsg
}

// newCentralHeap builds a central-coordinator heap over n processes.
// Process 0 is the coordinator.
func newCentralHeap(n int) *centralHeap {
	c := &centralHeap{n: n, coordinator: 0, trace: semantics.NewTrace()}
	c.nodes = make([]*centralNode, n)
	for i := range c.nodes {
		c.nodes[i] = &centralNode{h: c, pending: make(map[uint64]centralReq)}
	}
	c.nodes[0].heap = seqheap.New(0)
	return c
}

// Trace returns the execution trace.
func (c *centralHeap) Trace() *semantics.Trace { return c.trace }

// Done reports whether every injected operation completed.
func (c *centralHeap) Done() bool { return c.trace.DoneCount() == c.trace.Len() }

// spec describes the heap's synchronous engine (identity grouping: each
// process is its own congestion group).
func (c *centralHeap) spec(seed uint64) sim.Spec {
	hs := make([]sim.Handler, c.n)
	for i, n := range c.nodes {
		hs[i] = &centralHandler{n: n, id: sim.NodeID(i)}
	}
	return sim.Spec{Handlers: hs, Seed: seed}
}

// InjectInsert buffers an Insert at the given process.
func (c *centralHeap) InjectInsert(host int, id prio.ElemID, p uint64, payload string) {
	e := prio.Element{ID: id, Prio: prio.Priority(p), Payload: payload}
	op := c.trace.Issue(host, semantics.Insert, e)
	c.enqueue(host, &opMsg{Kind: semantics.Insert, Elem: e}, op)
}

// InjectDelete buffers a DeleteMin at the given process.
func (c *centralHeap) InjectDelete(host int) {
	op := c.trace.Issue(host, semantics.DeleteMin, prio.Element{})
	c.enqueue(host, &opMsg{Kind: semantics.DeleteMin}, op)
}

func (c *centralHeap) enqueue(host int, m *opMsg, op *semantics.Op) {
	n := c.nodes[host]
	n.nextReq++
	m.ReqID = n.nextReq
	n.pending[m.ReqID] = centralReq{op: op}
	n.outbox = append(n.outbox, m)
}

type centralHandler struct {
	n  *centralNode
	id sim.NodeID
}

func (ch *centralHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	n := ch.n
	switch m := msg.(type) {
	case *opMsg:
		// Coordinator: apply in arrival order — that order is ≺.
		n.value++
		switch m.Kind {
		case semantics.Insert:
			n.heap.Insert(m.Elem)
			ctx.Send(from, &resultMsg{ReqID: m.ReqID, Elem: prio.Element{}, Value: n.value})
		case semantics.DeleteMin:
			e, _ := n.heap.DeleteMin()
			ctx.Send(from, &resultMsg{ReqID: m.ReqID, Elem: e, Value: n.value})
		}
	case *resultMsg:
		req, ok := n.pending[m.ReqID]
		if !ok {
			panic("central heap: reply for unknown request")
		}
		delete(n.pending, m.ReqID)
		n.h.trace.Complete(req.op, m.Elem, m.Value)
	}
}

func (ch *centralHandler) Activate(ctx *sim.Context) {
	// Flush buffered operations to the coordinator, one message each —
	// precisely the non-batching behaviour whose congestion Skeap avoids.
	n := ch.n
	for _, m := range n.outbox {
		ctx.Send(n.h.coordinator, m)
	}
	n.outbox = nil
}
