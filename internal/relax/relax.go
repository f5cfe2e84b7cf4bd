package relax

import (
	"fmt"
	"sync"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/seqheap"
	"dpq/internal/sim"
)

// Config parameterizes a relaxed heap network.
type Config struct {
	N    int    // number of real processes
	Seed uint64 // seed for overlay labels and per-node sampling
	Mode Mode   // SampleK or BatchLocal (Strict is not a network)
	// K is SampleK's sample size (0 = DefaultK, clamped to [1, N]).
	K int
	// Batch is BatchLocal's prefetch refill size (0 = DefaultBatch).
	Batch int
	// PrioBound is the inclusive priority bound (0 = 1<<30, the Seap
	// "arbitrary priorities" default).
	PrioBound uint64
	// MaxInFlight caps how many SampleK probe sequences one host runs
	// concurrently (0 = 8). Queued deletes wait their turn.
	MaxInFlight int
}

// Escalation thresholds: after this many failed sampled attempts, a
// delete (SampleK) or a refill (BatchLocal) probes every host, so an
// all-empty verdict — and therefore ⊥ — is always reached in bounded
// time and a lone element on an unlucky host is always found.
const (
	sampleEscalateAfter = 3
	stealEscalateAfter  = 3
	defaultMaxInFlight  = 8
)

// pendingOp is a buffered heap operation awaiting the next activation.
type pendingOp struct {
	kind semantics.OpKind
	elem prio.Element
	op   *semantics.Op
}

// delReq is one SampleK DeleteMin in flight at its issuing host.
type delReq struct {
	op       *semantics.Op
	id       uint64
	attempts int
	full     bool // current attempt probes every host
	waiting  int  // outstanding probe replies
	bestSet  bool
	best     prio.Key
	bestHost int
}

// Heap drives a relaxed priority-queue network: per-host sequential heaps
// on the LDB overlay, coupled only by probe/pop/steal messages. It
// satisfies Backend, so the facade and the serving layer drive it exactly
// like the strict protocols.
type Heap struct {
	cfg   Config
	ov    *ldb.Overlay
	nodes []*node // one per host
	trace *semantics.Trace
	col   *obs.Collector
}

// node is one host's relaxation state, living at the host's middle
// virtual node. The left/right virtual nodes of the overlay are inert —
// the relaxation engine needs no tree, only peer-to-peer sends — but the
// overlay keeps congestion grouping and the network runtime's host
// mapping identical to the strict protocols.
type node struct {
	heap *Heap
	host int

	mu     sync.Mutex
	buffer []pendingOp // injected, not yet activated (guarded by mu)

	local *seqheap.Heap // this host's share of the structure

	// clock is the host's Lamport clock; serialization values are minted
	// from it (see messages.go for why that orders Insert before the
	// DeleteMin that returns the element on every engine).
	clock   uint64
	nextReq uint64

	// SampleK state.
	reqs     map[uint64]*delReq
	queued   []*delReq
	inFlight int

	// BatchLocal state.
	prefetch      []prio.Element  // host-local delivery buffer (FIFO)
	waitingDel    []*semantics.Op // deletes waiting for the next refill
	stealing      bool            // one steal in flight at a time
	stealAttempts int             // consecutive empty steals
	surveyReq     uint64          // nonzero while an all-host survey runs
	surveyWaiting int
	surveyBestSet bool
	surveyBest    prio.Key
	surveyHost    int
}

// New builds a relaxed heap network. Like the strict protocols it is
// inert until its handlers run on an engine and operations are injected.
func New(cfg Config) *Heap {
	if cfg.N < 1 {
		panic("relax: at least one host required")
	}
	if cfg.N >= 1<<16 {
		panic("relax: host count must fit 16 bits of the serialization value")
	}
	if cfg.Mode != SampleK && cfg.Mode != BatchLocal {
		panic(fmt.Sprintf("relax: Config.Mode must be SampleK or BatchLocal (got %v)", cfg.Mode))
	}
	if cfg.K == 0 {
		cfg.K = DefaultK
	}
	if cfg.K > cfg.N {
		cfg.K = cfg.N
	}
	if cfg.Batch == 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.PrioBound == 0 {
		cfg.PrioBound = 1 << 30
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	h := &Heap{
		cfg:   cfg,
		ov:    ldb.New(cfg.N, hashutil.New(cfg.Seed)),
		trace: semantics.NewTrace(),
	}
	h.nodes = make([]*node, cfg.N)
	// Flat backing array for the per-host state — one allocation instead
	// of N — with the reqs map left nil until a SampleK delete touches the
	// host (a per-node footprint saving at large N).
	arena := make([]node, cfg.N)
	for i := range h.nodes {
		nd := &arena[i]
		nd.heap = h
		nd.host = i
		nd.local = seqheap.New(0)
		h.nodes[i] = nd
	}
	return h
}

// Overlay exposes the underlying LDB (engine grouping, network runtime).
func (h *Heap) Overlay() *ldb.Overlay { return h.ov }

// Trace returns the execution trace for the semantics checkers.
func (h *Heap) Trace() *semantics.Trace { return h.trace }

// Done reports whether every injected operation has completed.
func (h *Heap) Done() bool { return h.trace.DoneCount() == h.trace.Len() }

// Check judges the trace on relaxed validity only: a relaxed delivery
// stream legitimately violates strict oracle order, which RankError
// quantifies instead.
func (h *Heap) Check() *semantics.Report { return semantics.CheckRelaxedValidity(h.trace) }

// Priority returns the priority e was injected with: the relaxation engine
// stores elements exactly as injected.
func (h *Heap) Priority(e prio.Element) uint64 { return uint64(e.Prio) }

// Batches, SetAutoRepeat and StartBatch complete Backend for an engine with
// no anchor: hosts serve their own operations on every activation, so the
// whole run counts as one batch and there is nothing to start or to stop.
func (h *Heap) Batches() int            { return 1 }
func (h *Heap) SetAutoRepeat(bool)      {}
func (h *Heap) StartBatch(*sim.Context) {}

// Mode returns the configured relaxation mode.
func (h *Heap) Mode() Mode { return h.cfg.Mode }

// SetObs attaches a collector (serving-layer hook; the relaxation engine
// has no multi-phase timeline to mark, so the collector only aggregates
// the engine's per-kind message stats). nil detaches.
func (h *Heap) SetObs(c *obs.Collector) { h.col = c }

// Handlers returns the per-virtual-node sim handlers: the host state at
// each middle node, inert handlers at the tree-only left/right nodes.
func (h *Heap) Handlers() []sim.Handler {
	hs := make([]sim.Handler, h.ov.NumVirtual())
	flat := make([]nodeHandler, h.ov.N)
	for i := range hs {
		if ldb.KindOf(sim.NodeID(i)) == ldb.Middle {
			host := ldb.HostOf(sim.NodeID(i))
			flat[host] = nodeHandler{nd: h.nodes[host]}
			hs[i] = &flat[host]
		} else {
			hs[i] = inertHandler{}
		}
	}
	return hs
}

// Spec is the heap's wiring as the start of an engine description (see
// skeap.Heap.Spec).
func (h *Heap) Spec(kind sim.EngineKind) sim.Spec {
	groups, group := h.ov.Group()
	return sim.Spec{Kind: kind, Handlers: h.Handlers(), Seed: h.cfg.Seed + 1, Groups: groups, Group: group}
}

// NewSyncEngine wires the heap into a synchronous engine with per-host
// congestion grouping.
func (h *Heap) NewSyncEngine() *sim.SyncEngine {
	return sim.Build(h.Spec(sim.KindSync)).(*sim.SyncEngine)
}

// InjectInsert buffers Insert(e) at host. p is the 1-based raw priority
// (no protocol-internal remapping: the relaxation engine stores elements
// exactly as injected). The returned op completes once the element is in
// the host's local heap.
func (h *Heap) InjectInsert(host int, id prio.ElemID, p uint64, payload string) *semantics.Op {
	if p < 1 || p > h.cfg.PrioBound {
		panic(fmt.Sprintf("relax: priority %d out of range [1,%d]", p, h.cfg.PrioBound))
	}
	e := prio.Element{ID: id, Prio: prio.Priority(p), Payload: payload}
	op := h.trace.Issue(host, semantics.Insert, e)
	nd := h.nodes[host]
	nd.mu.Lock()
	nd.buffer = append(nd.buffer, pendingOp{kind: semantics.Insert, elem: e, op: op})
	nd.mu.Unlock()
	return op
}

// InjectDelete buffers DeleteMin() at host. The returned op carries the
// delivered element (or ⊥) once complete.
func (h *Heap) InjectDelete(host int) *semantics.Op {
	op := h.trace.Issue(host, semantics.DeleteMin, prio.Element{})
	nd := h.nodes[host]
	nd.mu.Lock()
	nd.buffer = append(nd.buffer, pendingOp{kind: semantics.DeleteMin, op: op})
	nd.mu.Unlock()
	return op
}

// LocalSizes returns each host's local-heap size (tests, experiments).
func (h *Heap) LocalSizes() []int {
	out := make([]int, len(h.nodes))
	for i, nd := range h.nodes {
		out[i] = nd.local.Len()
	}
	return out
}

// ---- node mechanics ------------------------------------------------------

// tick advances the Lamport clock for a local event and returns it.
func (nd *node) tick() uint64 {
	nd.clock++
	return nd.clock
}

// recv advances the clock past an incoming message's stamp.
func (nd *node) recv(s uint64) {
	if s > nd.clock {
		nd.clock = s
	}
	nd.clock++
}

// complete stamps op with a serialization value minted from the Lamport
// clock: (clock << 16) | host. Clocks tick on every completion, so values
// are unique per host; the host bits make them unique globally.
func (nd *node) complete(op *semantics.Op, res prio.Element) {
	c := nd.tick()
	if c >= 1<<46 {
		panic("relax: logical clock overflow")
	}
	nd.heap.trace.Complete(op, res, int64(c<<16|uint64(nd.host)))
}

// send stamps and sends m to the middle virtual node of host.
func (nd *node) send(ctx *sim.Context, host int, m stamped) {
	m.setStamp(nd.tick())
	ctx.Send(ldb.VID(host, ldb.Middle), m.(sim.Message))
}

func keyLess(a, b prio.Key) bool {
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.ID < b.ID
}

// activate drains the injection buffer — inserts complete on the spot,
// deletes enter the mode's service queue — then pumps the mode's state
// machine.
func (nd *node) activate(ctx *sim.Context) {
	nd.mu.Lock()
	ops := nd.buffer
	nd.buffer = nil
	nd.mu.Unlock()
	for _, po := range ops {
		if po.kind == semantics.Insert {
			nd.local.Insert(po.elem)
			nd.complete(po.op, po.elem)
			continue
		}
		switch nd.heap.cfg.Mode {
		case SampleK:
			nd.nextReq++
			d := &delReq{op: po.op, id: nd.nextReq}
			if nd.reqs == nil {
				nd.reqs = map[uint64]*delReq{}
			}
			nd.reqs[d.id] = d
			nd.queued = append(nd.queued, d)
		case BatchLocal:
			nd.waitingDel = append(nd.waitingDel, po.op)
		}
	}
	switch nd.heap.cfg.Mode {
	case SampleK:
		nd.pump(ctx)
	case BatchLocal:
		nd.servePrefetch(ctx)
	}
}

// pump starts probe sequences for queued deletes up to the in-flight cap.
func (nd *node) pump(ctx *sim.Context) {
	for nd.inFlight < nd.heap.cfg.MaxInFlight && len(nd.queued) > 0 {
		d := nd.queued[0]
		nd.queued = nd.queued[1:]
		nd.inFlight++
		nd.startProbe(ctx, d)
	}
}

// startProbe launches one probe attempt for d: k sampled hosts, or every
// host once the attempt count escalates (or k ≥ n).
func (nd *node) startProbe(ctx *sim.Context, d *delReq) {
	n := nd.heap.cfg.N
	d.attempts++
	d.bestSet = false
	if d.attempts > sampleEscalateAfter || nd.heap.cfg.K >= n {
		d.full = true
		d.waiting = n
		for t := 0; t < n; t++ {
			nd.send(ctx, t, &probeMsg{Req: d.id})
		}
		return
	}
	d.full = false
	perm := ctx.Rand().Perm(n)
	targets := perm[:nd.heap.cfg.K]
	d.waiting = len(targets)
	for _, t := range targets {
		nd.send(ctx, t, &probeMsg{Req: d.id})
	}
}

// finishDelete completes d and frees its in-flight slot.
func (nd *node) finishDelete(ctx *sim.Context, d *delReq, e prio.Element) {
	delete(nd.reqs, d.id)
	nd.inFlight--
	nd.complete(d.op, e)
	nd.pump(ctx)
}

// ---- BatchLocal mechanics ------------------------------------------------

// servePrefetch serves waiting deletes from the prefetch buffer,
// refilling from the local heap or — when it is empty — by stealing a
// batch from a peer; an all-host survey is the escalation that either
// finds a non-empty peer or proves the structure empty (⊥).
func (nd *node) servePrefetch(ctx *sim.Context) {
	cfg := nd.heap.cfg
	for len(nd.waitingDel) > 0 {
		if len(nd.prefetch) > 0 {
			e := nd.prefetch[0]
			nd.prefetch = nd.prefetch[1:]
			op := nd.waitingDel[0]
			nd.waitingDel = nd.waitingDel[1:]
			nd.complete(op, e)
			continue
		}
		if nd.local.Len() > 0 {
			for i := 0; i < cfg.Batch && nd.local.Len() > 0; i++ {
				e, _ := nd.local.DeleteMin()
				nd.prefetch = append(nd.prefetch, e)
			}
			continue
		}
		if cfg.N == 1 {
			// Nobody to steal from: the structure is empty.
			op := nd.waitingDel[0]
			nd.waitingDel = nd.waitingDel[1:]
			nd.complete(op, prio.Element{})
			continue
		}
		if !nd.stealing && nd.surveyReq == 0 {
			if nd.stealAttempts >= stealEscalateAfter {
				nd.startSurvey(ctx)
			} else {
				nd.startSteal(ctx, nd.pickStealTarget(ctx))
			}
		}
		return // a steal or survey is in flight; its reply resumes service
	}
}

// pickStealTarget samples a peer uniformly (never self: the own heap was
// just found empty).
func (nd *node) pickStealTarget(ctx *sim.Context) int {
	t := ctx.Rand().Intn(nd.heap.cfg.N - 1)
	if t >= nd.host {
		t++
	}
	return t
}

func (nd *node) startSteal(ctx *sim.Context, host int) {
	nd.stealing = true
	nd.send(ctx, host, &stealMsg{Max: uint32(nd.heap.cfg.Batch)})
}

func (nd *node) startSurvey(ctx *sim.Context) {
	nd.nextReq++
	nd.surveyReq = nd.nextReq
	nd.surveyWaiting = nd.heap.cfg.N
	nd.surveyBestSet = false
	for t := 0; t < nd.heap.cfg.N; t++ {
		nd.send(ctx, t, &probeMsg{Req: nd.surveyReq})
	}
}

// ---- message dispatch ----------------------------------------------------

func (nd *node) handleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	st, ok := msg.(stamped)
	if !ok {
		panic(fmt.Sprintf("relax: unexpected message %T", msg))
	}
	nd.recv(st.stamp())
	switch m := msg.(type) {
	case *probeMsg:
		rep := &probeReply{Req: m.Req}
		if min, have := nd.local.Min(); have {
			rep.Min = prio.KeyOf(min)
		} else {
			rep.Empty = true
		}
		nd.send(ctx, ldb.HostOf(from), rep)
	case *probeReply:
		if nd.heap.cfg.Mode == SampleK {
			nd.handleProbeReply(ctx, from, m)
		} else {
			nd.handleSurveyReply(ctx, from, m)
		}
	case *popMsg:
		rep := &popReply{Req: m.Req}
		if e, have := nd.local.DeleteMin(); have {
			rep.OK = true
			rep.Elem = e
		}
		nd.send(ctx, ldb.HostOf(from), rep)
	case *popReply:
		d := nd.reqs[m.Req]
		if d == nil {
			return
		}
		if m.OK {
			nd.finishDelete(ctx, d, m.Elem)
		} else {
			// The winner emptied between probe and pop; re-probe.
			nd.startProbe(ctx, d)
		}
	case *stealMsg:
		rep := &stealReply{}
		for i := uint32(0); i < m.Max && nd.local.Len() > 0; i++ {
			e, _ := nd.local.DeleteMin()
			rep.Elems = append(rep.Elems, e)
		}
		nd.send(ctx, ldb.HostOf(from), rep)
	case *stealReply:
		nd.stealing = false
		if len(m.Elems) > 0 {
			nd.prefetch = append(nd.prefetch, m.Elems...)
			nd.stealAttempts = 0
		} else {
			nd.stealAttempts++
		}
		nd.servePrefetch(ctx)
	default:
		panic(fmt.Sprintf("relax: unexpected message %T", msg))
	}
}

// handleProbeReply folds one SampleK probe answer into its delete.
func (nd *node) handleProbeReply(ctx *sim.Context, from sim.NodeID, m *probeReply) {
	d := nd.reqs[m.Req]
	if d == nil || d.waiting == 0 {
		return
	}
	d.waiting--
	if !m.Empty && (!d.bestSet || keyLess(m.Min, d.best)) {
		d.bestSet = true
		d.best = m.Min
		d.bestHost = ldb.HostOf(from)
	}
	if d.waiting > 0 {
		return
	}
	switch {
	case d.bestSet:
		nd.send(ctx, d.bestHost, &popMsg{Req: d.id})
	case d.full:
		// Every host answered empty: the structure is empty — ⊥.
		nd.finishDelete(ctx, d, prio.Element{})
	default:
		nd.startProbe(ctx, d)
	}
}

// handleSurveyReply folds one BatchLocal survey answer.
func (nd *node) handleSurveyReply(ctx *sim.Context, from sim.NodeID, m *probeReply) {
	if m.Req != nd.surveyReq || nd.surveyWaiting == 0 {
		return
	}
	nd.surveyWaiting--
	if !m.Empty && (!nd.surveyBestSet || keyLess(m.Min, nd.surveyBest)) {
		nd.surveyBestSet = true
		nd.surveyBest = m.Min
		nd.surveyHost = ldb.HostOf(from)
	}
	if nd.surveyWaiting > 0 {
		return
	}
	nd.surveyReq = 0
	if nd.surveyBestSet {
		nd.stealAttempts = 0
		nd.startSteal(ctx, nd.surveyHost)
		return
	}
	// Every local heap is empty: concede ⊥ for everything waiting now.
	for _, op := range nd.waitingDel {
		nd.complete(op, prio.Element{})
	}
	nd.waitingDel = nil
}

// nodeHandler adapts a node to sim.Handler.
type nodeHandler struct{ nd *node }

func (h *nodeHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	h.nd.handleMessage(ctx, from, msg)
}
func (h *nodeHandler) Activate(ctx *sim.Context) { h.nd.activate(ctx) }

// inertHandler backs the left/right virtual nodes, which carry no
// relaxation state and must never be addressed.
type inertHandler struct{}

func (inertHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	panic("relax: message delivered to inert virtual node")
}
func (inertHandler) Activate(*sim.Context) {}
func (inertHandler) Passive() bool         { return true }
