// Package seap implements the Seap protocol (§5): a distributed heap for
// arbitrary priorities 𝒫 = {1,…,n^q} that is serializable and heap
// consistent (Theorem 5.1). Unlike Skeap, its messages carry only O(log n)
// bits regardless of the injection rate — the paper's headline improvement
// — because batches aggregate bare operation *counts* instead of
// per-priority vectors.
//
// A cycle of the anchor runs Algorithm 4's two phases on one count:
//
//	Count   aggregate the numbers k of buffered inserts and d of buffered
//	        deletes in one wave, update v₀.m and fix k* = min(d, m);
//	        scatter serialization values for the inserts and a unique
//	        position in [1,d] for each delete (beyond k*: ⊥ at once).
//	        Every node stores its inserts under uniformly random DHT keys.
//
//	Select  once every store is confirmed, and only if k* ≥ 1: KSelect
//	        finds the rank-k* element; its first start loads each node's
//	        stored elements as candidates and issues the node's Gets.
//	        The k* most prioritized elements are re-stored under
//	        h(cycle, i), where the parked Gets find them (§3.2.4).
//
// The stores and the Gets each end by a convergecast over the tree: a node
// reports once its own Puts are confirmed or its Gets answered, and the
// anchor hears the end one tree height after the last of them, keeping
// every step within O(log n) rounds w.h.p.
package seap

import (
	"sync"

	"dpq/internal/aggtree"
	"dpq/internal/dht"
	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// Aggtree tags of the Seap phases (KSelect owns tags 10+).
const (
	tagCount    aggtree.Tag = 1 // inserts and deletes
	tagInsStore aggtree.Tag = 2 // convergecast: every insert is stored
	tagAssign   aggtree.Tag = 5
	tagDelFetch aggtree.Tag = 6 // convergecast: every matched delete is answered
)

// Config parameterizes a Seap network.
type Config struct {
	N         int    // number of real processes
	PrioBound uint64 // priorities are drawn from [1, PrioBound] (poly(n))
	Seed      uint64
	// SeqConsistent enables the §6 variant: each node contributes at most
	// its *oldest* buffered operation per phase, which restores local
	// consistency (and hence sequential consistency) "at the cost of
	// scalability" — exactly the trade-off the conclusion sketches.
	// Experiment E18 measures the cost.
	SeqConsistent bool
}

type pendingOp struct {
	kind semantics.OpKind
	elem prio.Element
	op   *semantics.Op
}

// Node is one virtual node's Seap state.
type Node struct {
	heap   *Heap
	runner aggtree.Runner
	store  *dht.DHT

	mu     sync.Mutex
	insBuf []pendingOp
	delBuf []pendingOp
	// seqBuf replaces the two buffers in SeqConsistent mode: one unified
	// FIFO whose head alone is eligible per phase.
	seqBuf []pendingOp

	// The node's part of the current cycle: the ops its count took, the
	// deletes whose Gets wait for the selection (Heap.load), the elements
	// the assign took, and the deletes whose Gets are out, by request id.
	cycle    uint64
	ins, del []pendingOp
	taken    []prio.Element
	fetch    []*delRecord
	fetching map[uint64]*delRecord

	// puts and gets are the node's parts of the cycle's two completion
	// convergecasts: its insert Puts and its delete Gets.
	puts, gets owed
}

// owed is a node's part of one completion convergecast: the cycle it owes
// a contribution for (0 = none), its requests still out and those done.
type owed struct {
	cycle     uint64
	out, done int
}

// settle contributes o's done count to tag's convergecast once o's cycle
// has issued its requests and none is left out.
func (n *Node) settle(ctx *sim.Context, self *ldb.VInfo, tag aggtree.Tag, o *owed) {
	if o.cycle == 0 || o.out > 0 {
		return
	}
	n.runner.Contribute(ctx, self, tag, o.cycle, aggtree.IntVal(o.done))
	*o = owed{}
}

// replied counts a confirmed insert Put, or completes the delete whose
// Get r answers.
func (n *Node) replied(r *dht.ReplyMsg) {
	if r.Ack {
		if n.puts.out == 0 {
			panic("seap: Put confirmation with none outstanding")
		}
		n.puts.out--
		n.puts.done++
		return
	}
	rec, ok := n.fetching[r.ReqID]
	if !ok {
		panic("seap: reply for unknown request")
	}
	delete(n.fetching, r.ReqID)
	n.gets.out--
	n.gets.done++
	n.heap.markDeleteDone(rec, r.Elem)
}

// delRecord tracks one DeleteMin of a cycle for the serialization-value
// fixup: matched deletes serialize in key order of their returned
// elements, ⊥ deletes after them in position order (exactly the
// permutation chosen in the proof of Lemma 5.2).
type delRecord struct {
	op   *semantics.Op
	pos  int64
	res  prio.Element
	done bool
}

type delPhase struct {
	base    int64
	expect  int64
	records []*delRecord
}

// Heap drives a Seap network.
type Heap struct {
	cfg      Config
	ov       *ldb.Overlay
	hasher   hashutil.Hasher
	nodes    []*Node
	trace    *semantics.Trace
	selector *kselect.Selector
	// protos holds the Seap phases, shared by every node's Runner.
	protos aggtree.Table

	autoRepeat bool

	// anchor state
	inFlight     bool
	seq          uint64
	cycle        uint64
	m            int64 // v₀.m: elements in the heap
	valueCounter int64
	k            int64 // inserts of the current cycle
	kStar        int64
	threshold    prio.Key
	cycles       int

	// driver-side bookkeeping for the serialization trace
	traceMu   sync.Mutex
	delPhases map[uint64]*delPhase
	// lastMigrated counts elements that changed hosts in the most recent
	// membership change (experiment E20).
	lastMigrated int
	// col, when set, receives the phase timeline of each cycle (one mark
	// per aggtree exchange the anchor starts).
	col *obs.Collector
}

// New builds a Seap network.
func New(cfg Config) *Heap {
	if cfg.N < 1 {
		panic("seap: invalid config")
	}
	if cfg.PrioBound == 0 {
		cfg.PrioBound = uint64(cfg.N) * uint64(cfg.N)
	}
	h := &Heap{
		cfg:          cfg,
		hasher:       hashutil.New(cfg.Seed),
		trace:        semantics.NewTrace(),
		autoRepeat:   true,
		valueCounter: 1,
		delPhases:    make(map[uint64]*delPhase),
	}
	h.ov = ldb.New(cfg.N, h.hasher)
	h.selector = kselect.New(h.ov, hashutil.New(cfg.Seed^seapSalt()))
	h.selector.SetOnDone(h.onSelectDone)
	h.selector.SetLoad(h.load)
	h.register()
	nv := h.ov.NumVirtual()
	h.nodes = make([]*Node, nv)
	// Flat backing arrays for per-node state (see skeap.New): two
	// allocations instead of 2·nv.
	arena := make([]Node, nv)
	stores := dht.NewAll(h.ov, nv)
	for i := range h.nodes {
		n := &arena[i]
		n.heap = h
		n.runner = h.protos.Runner()
		n.store = &stores[i]
		h.nodes[i] = n
	}
	return h
}

// seapSalt is a fixed salt separating the selector's hash family from the
// heap's.
func seapSalt() uint64 { return 0x5ea95ea95ea95ea9 }

// Overlay exposes the underlying LDB.
func (h *Heap) Overlay() *ldb.Overlay { return h.ov }

// Trace returns the execution trace.
func (h *Heap) Trace() *semantics.Trace { return h.trace }

// Check replays the trace against the guarantee this configuration gives:
// serializability + heap consistency (Theorem 5.1), or sequential
// consistency + heap consistency for the §6 variant.
func (h *Heap) Check() *semantics.Report {
	if h.cfg.SeqConsistent {
		return semantics.CheckAll(h.trace, semantics.ByID)
	}
	return semantics.CheckSerializable(h.trace, semantics.ByID)
}

// Cycles returns how many cycles the anchor has started.
func (h *Heap) Cycles() int { return h.cycles }

// Size returns the anchor's view of the number of stored elements.
func (h *Heap) Size() int64 { return h.m }

// SetAutoRepeat controls the anchor's continuous cycling.
func (h *Heap) SetAutoRepeat(on bool) { h.autoRepeat = on }

// SetObs attaches a phase-timeline collector: the anchor marks each
// aggtree exchange it starts (count, assign) and each wait for a
// completion convergecast (ins-store, del-fetch), and the embedded
// selector marks its own KSelect phases. nil detaches.
func (h *Heap) SetObs(c *obs.Collector) {
	h.col = c
	h.selector.SetObs(c)
}

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

// Spec is the heap's wiring as the start of an engine description (see
// skeap.Heap.Spec).
func (h *Heap) Spec(kind sim.EngineKind) sim.Spec {
	groups, group := h.ov.Group()
	return sim.Spec{Kind: kind, Handlers: h.Handlers(), Seed: h.cfg.Seed + 1, Groups: groups, Group: group}
}

// NewSyncEngine wires the heap into a synchronous engine.
func (h *Heap) NewSyncEngine() *sim.SyncEngine {
	return sim.Build(h.Spec(sim.KindSync)).(*sim.SyncEngine)
}

// InjectInsert buffers Insert(e) at host's middle virtual node. The
// returned op completes (see semantics.Trace.SetOnComplete) once the
// element is stored.
func (h *Heap) InjectInsert(host int, id prio.ElemID, p uint64, payload string) *semantics.Op {
	if p < 1 || p > h.cfg.PrioBound {
		panic("seap: priority out of range")
	}
	e := prio.Element{ID: id, Prio: prio.Priority(p), Payload: payload}
	op := h.trace.Issue(host, semantics.Insert, e)
	n := h.nodes[ldb.VID(host, ldb.Middle)]
	n.mu.Lock()
	if h.cfg.SeqConsistent {
		n.seqBuf = append(n.seqBuf, pendingOp{kind: semantics.Insert, elem: e, op: op})
	} else {
		n.insBuf = append(n.insBuf, pendingOp{kind: semantics.Insert, elem: e, op: op})
	}
	n.mu.Unlock()
	return op
}

// InjectDelete buffers DeleteMin() at host's middle virtual node. The
// returned op carries the deleted element (or ⊥) once complete.
func (h *Heap) InjectDelete(host int) *semantics.Op {
	op := h.trace.Issue(host, semantics.DeleteMin, prio.Element{})
	n := h.nodes[ldb.VID(host, ldb.Middle)]
	n.mu.Lock()
	if h.cfg.SeqConsistent {
		n.seqBuf = append(n.seqBuf, pendingOp{kind: semantics.DeleteMin, op: op})
	} else {
		n.delBuf = append(n.delBuf, pendingOp{kind: semantics.DeleteMin, op: op})
	}
	n.mu.Unlock()
	return op
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

// StartCycle begins one cycle from the anchor's context (manual mode).
func (h *Heap) StartCycle(ctx *sim.Context) {
	if h.inFlight {
		panic("seap: cycle already in flight")
	}
	h.inFlight = true
	h.cycles++
	h.cycle++
	h.start(ctx, tagCount, nil)
}

// posKey is the DHT key of delete position pos in a given cycle.
func (h *Heap) posKey(cycle uint64, pos int64) uint64 {
	return h.hasher.Pair(cycle, uint64(pos))
}

// nextSeq returns a fresh aggtree instance id.
func (h *Heap) nextSeq() uint64 {
	h.seq++
	return h.seq
}

// recordDelete registers a delete of the current cycle; finalizeDeletes
// assigns serialization values once all of them completed.
func (h *Heap) recordDelete(cycle uint64, r *delRecord) {
	h.traceMu.Lock()
	defer h.traceMu.Unlock()
	ph := h.delPhases[cycle]
	ph.records = append(ph.records, r)
}

func (h *Heap) markDeleteDone(r *delRecord, res prio.Element) {
	h.traceMu.Lock()
	defer h.traceMu.Unlock()
	r.res = res
	r.done = true
}

// finalizeDeletes assigns the cycle's delete serialization values: matched
// deletes in ascending key order of their results, then ⊥ deletes in
// position order — the serialization permutation of Lemma 5.2.
func (h *Heap) finalizeDeletes(cycle uint64) {
	h.traceMu.Lock()
	ph := h.delPhases[cycle]
	delete(h.delPhases, cycle)
	h.traceMu.Unlock()
	if ph == nil {
		return
	}
	if int64(len(ph.records)) != ph.expect {
		panic("seap: finalizing a delete phase before every delete is recorded")
	}
	matched := make([]*delRecord, 0, len(ph.records))
	var bottoms []*delRecord
	for _, r := range ph.records {
		if !r.done {
			panic("seap: finalizing an incomplete delete phase")
		}
		if r.res.Nil() {
			bottoms = append(bottoms, r)
		} else {
			matched = append(matched, r)
		}
	}
	sortRecordsByKey(matched)
	sortRecordsByPos(bottoms)
	v := ph.base
	for _, r := range matched {
		h.trace.Complete(r.op, r.res, v)
		v++
	}
	for _, r := range bottoms {
		h.trace.Complete(r.op, prio.Element{}, v)
		v++
	}
}

func sortRecordsByKey(rs []*delRecord) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && prio.KeyOf(rs[j].res).Less(prio.KeyOf(rs[j-1].res)); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func sortRecordsByPos(rs []*delRecord) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].pos < rs[j-1].pos; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// nodeHandler adapts a Node to sim.Handler.
type nodeHandler struct {
	n  *Node
	id sim.NodeID
}

func (nh *nodeHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	n := nh.n
	self := n.heap.ov.Info(nh.id)
	ks := n.heap.selector.NodeAt(nh.id)
	switch m := msg.(type) {
	case *ldb.RouteMsg:
		if ldb.Forward(ctx, n.heap.ov, self, m) {
			if n.store.HandleRouted(ctx, m.Payload) {
				return
			}
			if ks.HandleRouted(ctx, self, m.Payload) {
				return
			}
			panic("seap: unexpected routed payload")
		}
	default:
		if n.runner.Handle(ctx, self, from, msg) {
			return
		}
		if r, ok := msg.(*dht.ReplyMsg); ok {
			n.replied(r)
			n.settle(ctx, self, tagInsStore, &n.puts)
			n.settle(ctx, self, tagDelFetch, &n.gets)
			return
		}
		if ks.Handle(ctx, nh.id, from, msg) {
			return
		}
		panic("seap: unexpected message")
	}
}

// Passive implements sim.PassiveHandler: only the anchor's activation
// acts. AddHost/RemoveHost refresh the engine when the anchor moves.
func (nh *nodeHandler) Passive() bool { return nh.id != nh.n.heap.ov.Anchor }

func (nh *nodeHandler) Activate(ctx *sim.Context) {
	n := nh.n
	if nh.id != n.heap.ov.Anchor || !n.heap.autoRepeat {
		return
	}
	if !n.heap.inFlight {
		n.heap.StartCycle(ctx)
	}
}
