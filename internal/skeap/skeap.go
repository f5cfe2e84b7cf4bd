// Package skeap implements the Skeap protocol (§3): a distributed heap for
// a constant number of priorities that is sequentially consistent and heap
// consistent (Theorem 3.2). Each protocol iteration runs the paper's four
// phases:
//
//	Phase 1  nodes snapshot their buffered operations as batches and
//	         aggregate them entrywise to the anchor;
//	Phase 2  the anchor assigns position intervals per priority, growing
//	         [first_p, last_p] for inserts and consuming from the most
//	         prioritized non-empty intervals for deletes;
//	Phase 3  the intervals are decomposed back down the tree, each node
//	         splitting them among its own sub-batch and its children's;
//	Phase 4  every operation, now owning a unique (p, pos) pair, issues
//	         Put(h(p,pos), e) or Get(h(p,pos)) on the DHT.
//
// Phases 1–3 are one gather–scatter on the aggregation tree; the batch
// algebra lives in internal/batch, the tree plumbing in internal/aggtree
// and the storage in internal/dht. Iterations are sequenced by the anchor,
// which starts iteration s+1 as soon as it has scattered iteration s —
// DHT traffic of consecutive iterations overlaps safely because positions
// are globally unique.
package skeap

import (
	"sync"
	"sync/atomic"

	"dpq/internal/aggtree"
	"dpq/internal/batch"
	"dpq/internal/dht"
	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// Config parameterizes a Skeap network.
type Config struct {
	N    int    // number of real processes
	P    int    // number of priorities (the paper's constant c = |𝒫|)
	Seed uint64 // seed for labels, hashing and protocol randomness
	// LIFO makes deletes pop the newest element per priority instead of
	// the oldest — the distributed-stack variant ([FSS18b]); with P = 1
	// this is a distributed stack, with FIFO order a distributed queue
	// (Skueue, [FSS18a]).
	LIFO bool
	// MaxBatch caps how many buffered operations a node snapshots per
	// iteration (0 = unlimited). MaxBatch = 1 disables batching — the
	// ablation of the paper's central design choice (experiment E17).
	MaxBatch int
	// MaxHeap inverts the delete preference: DeleteMin becomes DeleteMax
	// (§1.2: "this property can be inverted such that our heap behaves
	// like a MaxHeap").
	MaxHeap bool
}

// tagBatch is the aggtree tag of the Skeap gather–scatter.
const tagBatch aggtree.Tag = 1

// pendingOp is a buffered heap operation awaiting the next batch.
type pendingOp struct {
	kind semantics.OpKind
	elem prio.Element
	op   *semantics.Op
}

// pendingGet is one Phase-4 DHT fetch in flight, tagged with the
// iteration that issued it (see Node.pendingGets): its delete, which the
// reply completes with the element and value. aborted marks a fetch a
// reset cancelled: its delete is back in the buffer, and the record only
// waits to drop a straggler reply.
type pendingGet struct {
	op      pendingOp
	seq     uint64
	value   int64
	aborted bool
}

// slot records how a snapshotted operation maps into its batch: its entry,
// and its indices within the entry in issue order and per priority.
type slot struct {
	op      pendingOp
	entry   int
	insIdx  int64 // index among the entry's inserts, issue order
	insPIdx int64 // index among the entry's inserts of the same priority
	delIdx  int64 // index among the entry's deletes, issue order
}

// Node is one virtual node's protocol state.
type Node struct {
	heap   *Heap
	runner aggtree.Runner
	store  *dht.DHT

	mu        sync.Mutex
	buffer    []pendingOp
	snapshots map[uint64][]slot

	// pendingGets tracks Phase-4 DHT fetches in flight, by request id: a
	// reply completes its delete, and a partial-failure reset can abort
	// them and re-buffer their operations (a fetch aimed at a cell lost in
	// a crash would otherwise park forever).
	// Each record keeps its iteration seq: a reset only aborts fetches of
	// iterations below the floor, so a node that sees the ResetMsg late
	// cannot cancel fetches the post-reset serialization already issued.
	pendingGets map[uint64]pendingGet

	// anchor-only state
	anchorState *batch.AnchorState
	inFlight    bool
	nextSeq     uint64
	iterations  int
	// resetPending, set by InjectReset under mu, makes the anchor broadcast
	// a ResetMsg on its next activation.
	resetPending bool

	// quiet: this node applied the quiet down wave and has seen no start
	// wave since; woke: it sent or forwarded its one wake of that epoch
	// (quiet.go). Both are written under mu, on the handler goroutine.
	quiet, woke bool
}

// Heap drives a Skeap network: it owns the overlay, the per-virtual-node
// protocol handlers and the execution trace.
type Heap struct {
	cfg    Config
	ov     *ldb.Overlay
	hasher hashutil.Hasher
	nodes  []*Node
	trace  *semantics.Trace
	// protos is the batch gather–scatter, shared by every node's Runner.
	protos aggtree.Table

	// autoRepeat lets the anchor start a new iteration whenever the
	// previous one has been scattered; benchmarks disable it to measure a
	// single batch.
	autoRepeat bool
	// emptyIters counts the anchor's iterations that carried no operation.
	emptyIters int
	// lastMigrated counts elements that changed hosts in the most recent
	// membership change (experiment E20).
	lastMigrated int
	// wake, set by the engine (sim.WakeableHandler), asks for one
	// activation of a node; nil on engines that activate every node.
	wake func(sim.NodeID)
	// col, when set, receives the phase timeline of each iteration:
	// gather (phase 1), scatter (phases 2–3) and dht (phase 4).
	col *obs.Collector

	// resetFloor/resetApplied publish partial-failure reset progress to the
	// (possibly remote-driving) serving layer, and resetCh is closed (and
	// replaced) whenever a local node applies a reset; see reset.go.
	resetFloor   atomic.Uint64
	resetApplied atomic.Int64
	resetMu      sync.Mutex
	resetCh      chan struct{}
}

// MigratedLastChange returns how many stored elements changed hosts during
// the most recent membership change.
func (h *Heap) MigratedLastChange() int { return h.lastMigrated }

// New builds a Skeap network. The heap is inert until its handlers run on
// an engine (see Spec and NewSyncEngine) and ops are injected.
func New(cfg Config) *Heap {
	if cfg.N < 1 || cfg.P < 1 {
		panic("skeap: invalid config")
	}
	h := &Heap{
		cfg:        cfg,
		hasher:     hashutil.New(cfg.Seed),
		trace:      semantics.NewTrace(),
		autoRepeat: true,
	}
	h.ov = ldb.New(cfg.N, h.hasher)
	h.protos.Register(tagBatch, h.batchProto())
	nv := h.ov.NumVirtual()
	h.nodes = make([]*Node, nv)
	// Per-node state comes out of two flat backing arrays (nodes with
	// their Runners, DHT shards) — two allocations instead of 2·nv — and
	// the snapshots/pendingGets maps stay nil until a batch actually
	// touches a node. Both are per-node footprint savings that matter at
	// large n.
	arena := make([]Node, nv)
	stores := dht.NewAll(h.ov, nv)
	for i := range h.nodes {
		n := &arena[i]
		n.heap = h
		n.runner = h.protos.Runner()
		n.store = &stores[i]
		if sim.NodeID(i) == h.ov.Anchor {
			n.anchorState = batch.NewAnchorState(cfg.P)
			n.anchorState.SetLIFO(cfg.LIFO)
			n.anchorState.SetMaxHeap(cfg.MaxHeap)
		}
		h.nodes[i] = n
	}
	return h
}

// Overlay exposes the underlying LDB (tests, experiments).
func (h *Heap) Overlay() *ldb.Overlay { return h.ov }

// Trace returns the execution trace for the semantics checkers.
func (h *Heap) Trace() *semantics.Trace { return h.trace }

// Check replays the trace against the guarantee this configuration gives
// (Theorem 3.2): sequential consistency + heap consistency, for the
// inverted order under MaxHeap. LIFO order is not heap order, so the oracle
// replay does not apply to it; local consistency still must hold
// (dpq.CheckStack checks the stack order itself).
func (h *Heap) Check() *semantics.Report {
	switch {
	case h.cfg.LIFO:
		return semantics.CheckLocalConsistency(h.trace)
	case h.cfg.MaxHeap:
		return semantics.CheckAllMax(h.trace, semantics.FIFO)
	default:
		return semantics.CheckAll(h.trace, semantics.FIFO)
	}
}

// Iterations returns how many batch iterations the anchor has started.
func (h *Heap) Iterations() int { return h.nodes[h.ov.Anchor].iterations }

// EmptyIterations returns how many of the anchor's iterations carried no
// operation. In continuous mode each quiet epoch begins with one.
func (h *Heap) EmptyIterations() int { return h.emptyIters }

// SetAutoRepeat controls whether the anchor keeps starting iterations on
// its own (the protocol's continuous mode): while there is work, and after
// an empty iteration only when woken (quiet.go). Disable for single-batch
// measurements and drive iterations with StartIteration. Enabling it ends
// the anchor's quiet epoch, so the anchor's next activation starts an
// iteration whose start wave reaches every node, joined ones included.
func (h *Heap) SetAutoRepeat(on bool) {
	h.autoRepeat = on
	if on {
		a := h.nodes[h.ov.Anchor]
		a.mu.Lock()
		a.quiet = false
		a.mu.Unlock()
		h.wakeAnchor()
	}
}

// wakeAnchor asks the engine to activate the anchor.
func (h *Heap) wakeAnchor() {
	if h.wake != nil {
		h.wake(h.ov.Anchor)
	}
}

// SetObs attaches a phase-timeline collector: the anchor marks the
// gather/scatter/dht phase transitions of each iteration on it. nil
// detaches.
func (h *Heap) SetObs(c *obs.Collector) { h.col = c }

// Handlers returns the per-virtual-node sim handlers.
func (h *Heap) Handlers() []sim.Handler {
	hs := make([]sim.Handler, len(h.nodes))
	flat := make([]nodeHandler, len(h.nodes))
	for i, n := range h.nodes {
		flat[i] = nodeHandler{n: n, id: sim.NodeID(i)}
		hs[i] = &flat[i]
	}
	return hs
}

// Spec is the heap's wiring — handlers, engine seed, per-host congestion
// grouping — as the start of an engine description; the driver adds what it
// wants on top (delay, faults, observers) and calls sim.Build.
func (h *Heap) Spec(kind sim.EngineKind) sim.Spec {
	groups, group := h.ov.Group()
	return sim.Spec{Kind: kind, Handlers: h.Handlers(), Seed: h.cfg.Seed + 1, Groups: groups, Group: group}
}

// NewSyncEngine wires the heap into a synchronous engine with per-host
// congestion grouping.
func (h *Heap) NewSyncEngine() *sim.SyncEngine {
	return sim.Build(h.Spec(sim.KindSync)).(*sim.SyncEngine)
}

// InjectInsert buffers Insert(e) at host's middle virtual node. p is the
// 0-based priority; the element id must be unique across the run. The
// returned op completes (see semantics.Trace.SetOnComplete) once the
// element is stored.
func (h *Heap) InjectInsert(host int, id prio.ElemID, p int, payload string) *semantics.Op {
	if p < 0 || p >= h.cfg.P {
		panic("skeap: priority out of range")
	}
	e := prio.Element{ID: id, Prio: prio.Priority(p), Payload: payload}
	op := h.trace.Issue(host, semantics.Insert, e)
	h.buffer(host, pendingOp{kind: semantics.Insert, elem: e, op: op})
	return op
}

// InjectDelete buffers DeleteMin() at host's middle virtual node. The
// returned op carries the deleted element (or ⊥) once complete.
func (h *Heap) InjectDelete(host int) *semantics.Op {
	op := h.trace.Issue(host, semantics.DeleteMin, prio.Element{})
	h.buffer(host, pendingOp{kind: semantics.DeleteMin, op: op})
	return op
}

// buffer appends po to host's middle virtual node. A node that is quiet
// and has not woken the anchor yet must act on it at its next activation,
// which it asks the engine for.
func (h *Heap) buffer(host int, po pendingOp) {
	id := ldb.VID(host, ldb.Middle)
	n := h.nodes[id]
	n.mu.Lock()
	n.buffer = append(n.buffer, po)
	due := n.quiet && !n.woke
	n.mu.Unlock()
	if due && h.wake != nil {
		h.wake(id)
	}
}

// StartIteration begins one batch iteration from the anchor (manual mode;
// ctx must be the anchor's context).
func (h *Heap) StartIteration(ctx *sim.Context) {
	a := h.nodes[h.ov.Anchor]
	a.startIteration(ctx, h.ov.Info(h.ov.Anchor))
}

// Done reports whether every injected operation has completed.
func (h *Heap) Done() bool { return h.trace.DoneCount() == h.trace.Len() }

// StoreSizes returns per-host-slot DHT load (fairness experiment E12).
// Departed hosts keep their slot with a zero load.
func (h *Heap) StoreSizes() []int {
	out := make([]int, len(h.nodes)/3)
	for i, n := range h.nodes {
		out[ldb.HostOf(sim.NodeID(i))] += n.store.StoreSize()
	}
	return out
}

// nodeHandler adapts a Node to sim.Handler, binding its virtual id.
type nodeHandler struct {
	n  *Node
	id sim.NodeID
}

func (nh *nodeHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	n := nh.n
	self := n.heap.ov.Info(nh.id)
	switch m := msg.(type) {
	case *ldb.RouteMsg:
		if ldb.Forward(ctx, n.heap.ov, self, m) {
			if !n.store.HandleRouted(ctx, m.Payload) {
				panic("skeap: unexpected routed payload")
			}
		}
	case *ResetMsg:
		n.applyReset(m.Floor)
		n.maybeWake(ctx, self)
	case *WakeMsg:
		n.handleWake(ctx, self)
	default:
		if n.runner.Handle(ctx, self, from, msg) {
			return
		}
		if r, ok := msg.(*dht.ReplyMsg); ok {
			n.fetched(r)
			return
		}
		panic("skeap: unexpected message")
	}
}

// Passive implements sim.PassiveHandler: no node needs an activation
// every round. A node asks for the ones it needs (SetWake): the anchor
// when it may start the next iteration or has a reset to broadcast, any
// node when an operation is buffered at it while it is quiet.
func (nh *nodeHandler) Passive() bool { return true }

func (nh *nodeHandler) Activate(ctx *sim.Context) {
	n := nh.n
	if nh.id == n.heap.ov.Anchor {
		n.mu.Lock()
		reset := n.resetPending
		n.resetPending = false
		n.mu.Unlock()
		if reset {
			n.broadcastReset(ctx, nh.id)
		}
		if n.heap.autoRepeat && !n.inFlight && !n.quiet {
			n.startIteration(ctx, n.heap.ov.Info(nh.id))
			return
		}
	}
	if n.quiet && !n.woke {
		n.maybeWake(ctx, n.heap.ov.Info(nh.id))
	}
}

func (n *Node) startIteration(ctx *sim.Context, self *ldb.VInfo) {
	if n.inFlight {
		panic("skeap: iteration already in flight")
	}
	n.inFlight = true
	n.iterations++
	n.heap.col.Phase("skeap:gather")
	seq := n.nextSeq
	n.nextSeq++
	n.runner.Start(ctx, self, tagBatch, seq, nil)
}
