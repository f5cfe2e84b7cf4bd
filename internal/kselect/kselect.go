// Package kselect implements the KSelect protocol (§4, Algorithm 2): it
// finds the element of rank k among m = O(poly(n)) elements distributed
// over the n processes of an aggregation tree, in O(log n) rounds w.h.p.
// using O(log n)-bit messages (Theorem 4.2).
//
// The protocol runs three phases, orchestrated by the anchor as a
// sequence of gather–scatter exchanges on the aggregation tree:
//
//	Phase 1 (sampling, log q + 1 iterations, only when m > n^{3/2}):
//	  every node reports the keys of its ⌊k/n⌋-th and ⌈k/n⌉-th smallest
//	  local candidates; the anchor aggregates the window [P_min, P_max]
//	  and prunes candidates outside it, shrinking N from n^q to
//	  O(n^{3/2} log n) w.h.p. (Lemma 4.4). With m ≤ n^{3/2} that bound
//	  already holds, and the phase is skipped.
//
//	Phase 2 (representatives, O(1) iterations): each candidate is sampled
//	  with probability (√n + 3)/N, n the number of processes; the
//	  n′ ≈ √n + 3 sampled candidates are assigned unique positions, routed
//	  to pseudorandom roots, and sorted by the distributed all-pairs
//	  comparison of Algorithm 3 (distribution trees over de Bruijn edges,
//	  meeting points h(i,j)=h(j,i)). The sample's gather tells the anchor
//	  n′, so it fixes the orders l = ⌊kn′/N − δ⌋ and r = ⌈kn′/N + δ⌉
//	  before the sort and scatters them with the positions. Each root
//	  reports its candidate's position and order to the node that issued
//	  it, and a convergecast up the tree tells the anchor that the sort is
//	  complete, carrying the keys of the candidates c_l and c_r. The anchor
//	  computes their exact ranks, which fix how many candidates lie outside
//	  [c_l, c_r]; it updates k and N at once, and the nodes prune to the
//	  window when the next sample starts, shrinking N to O(√n) w.h.p.
//	  (Lemma 4.7). An iteration is three tree instances: sample, done,
//	  rank. An empty sample, or one the window spans, is drawn again
//	  before it is sorted. A failed window (rank k outside it — the
//	  low-probability event of Lemma 4.6) is detected and retried with
//	  doubled δ on the same ordered sample, fetching the new boundaries
//	  from the nodes that issued them.
//
//	Phase 3 (exact): all remaining candidates are sorted by the same
//	  machinery (sampling probability 1); the done convergecast brings the
//	  candidate of order k, the answer.
//
// Every sample's gather also counts the candidates the nodes hold, which
// the anchor checks against N, and tells each node which of its subtrees
// still hold candidates and which drew samples: the next sample, rank and
// boundary instances, the sample's scatter and the done convergecast run
// only on those (Node.candKids, Node.issuerKids), since a skipped subtree
// would contribute the identity. Only a selection's first start reaches
// every node.
//
// Ties are broken by element id (prio.Key), giving the total order §1.2
// requires.
package kselect

import (
	"math"

	"dpq/internal/aggtree"
	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// Aggtree tags used by the selector.
const (
	tagWindow   aggtree.Tag = 10 // phase 1: gather [P_min, P_max]
	tagPrune    aggtree.Tag = 11 // phase 1: prune to a key window, gather removal counts
	tagSample   aggtree.Tag = 12 // phase 2a/2b: prune to the checked window, sample, scatter positions
	tagDone     aggtree.Tag = 13 // convergecast: the sort has ordered every candidate; the boundaries or the answer
	tagBoundary aggtree.Tag = 14 // phase 2c after a failed rank check: fetch candidates of order l and r
	tagRank     aggtree.Tag = 15 // phase 2c: exact ranks of c_l and c_r
)

// phase of the anchor's state machine.
type phase int

const (
	phaseIdle phase = iota
	phase1Window
	phase1Prune
	phase2Sort
	phase2Boundary
	phase2Rank
	phase3Sort
	phaseDone
)

// Result is the outcome of a selection.
type Result struct {
	Elem  prio.Element // the element of rank k
	Found bool
	// Diagnostics for the reproduction experiments:
	Phase1Skipped     bool  // m ≤ n^{3/2}: phase 1 did not run
	CandidatesAfterP1 int64 // N after phase 1 (Lemma 4.4); m when skipped
	CandidatesAtP3    int64 // N when phase 3 started (Lemma 4.7)
	Phase2Iters       int   // phase-2 iterations executed
	Retries           int   // failed rank checks (Lemma 4.6), full-window resamples and empty samples
}

// Selector drives one KSelect execution over an overlay whose virtual
// nodes hold the candidate elements.
type Selector struct {
	ov     *ldb.Overlay
	hasher hashutil.Hasher
	nodes  []*Node
	// protos holds the selector's aggtree protocols, shared by every
	// node's Runner.
	protos aggtree.Table
	// tables is every node's distributed-sorting state for the current
	// epoch (sort.go, tables.go).
	tables sortTables

	// anchor state
	phase  phase
	m      int64 // initial number of elements
	k      int64 // current target rank among remaining candidates
	n      int64 // remaining candidates (the paper's v₀.N)
	q      int   // m ≤ n^q
	p1Iter int   // phase-1 iterations executed
	p2Iter int
	delta  float64 // δ for a new sample
	window float64 // δ of the current sample's window: delta, doubled per failed rank check
	epoch  uint64  // distinct per sorting round; salts hash points
	nPrime int64   // samples in the current sorting round
	seq    uint64  // aggtree instance counter
	exact  bool    // phase 3: sample everything
	first  bool    // the next instance started is the selection's first
	lOrder int64   // boundary orders for the current round
	rOrder int64
	// lo and hi are the key window of the last passed rank check; the
	// next sample's start carries it, and every node prunes to it.
	lo, hi prio.Key
	clKey  prio.Key
	crKey  prio.Key
	haveCl bool
	haveCr bool
	onDone func(ctx *sim.Context, res Result)
	load   func(ctx *sim.Context, self *ldb.VInfo) []prio.Element
	col    *obs.Collector // optional phase-timeline collector (nil-safe)
	// fullWindow counts consecutive rounds whose δ-window covered every
	// sample (no pruning possible); bounded resampling avoids an
	// expensive premature exact phase.
	fullWindow int
	result     Result
}

// New creates a selector over an existing overlay. Candidates are loaded
// per virtual node with Load before Start.
func New(ov *ldb.Overlay, hasher hashutil.Hasher) *Selector {
	s := &Selector{ov: ov, hasher: hasher}
	s.register()
	nv := ov.NumVirtual()
	s.nodes = make([]*Node, nv)
	// One flat backing array for the nodes, Runners included: one
	// allocation instead of nv — a per-node footprint saving at large n.
	arena := make([]Node, nv)
	for i := range s.nodes {
		n := &arena[i]
		n.sel = s
		n.runner = s.protos.Runner()
		s.nodes[i] = n
	}
	return s
}

// Load places elements into virtual node id's candidate set.
func (s *Selector) Load(id sim.NodeID, elems ...prio.Element) {
	s.nodes[id].cand = append(s.nodes[id].cand, elems...)
	s.m += int64(len(elems))
}

// LoadUniform distributes m elements with pseudorandom priorities
// uniformly over the virtual nodes (the paper's setting: elements spread
// u.a.r. by the DHT). Priorities are drawn from [1, n^q]; ids are 1..m.
// It returns the loaded elements.
func (s *Selector) LoadUniform(m int, prioBound uint64, seed uint64) []prio.Element {
	rnd := hashutil.NewRand(seed)
	elems := make([]prio.Element, m)
	for i := 0; i < m; i++ {
		e := prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64n(prioBound) + 1)}
		elems[i] = e
		s.Load(sim.NodeID(rnd.Intn(s.ov.NumVirtual())), e)
	}
	return elems
}

// Handlers returns the per-virtual-node sim handlers.
func (s *Selector) Handlers() []sim.Handler {
	hs := make([]sim.Handler, len(s.nodes))
	flat := make([]selHandler, len(s.nodes))
	for i, n := range s.nodes {
		flat[i] = selHandler{n: n, id: sim.NodeID(i)}
		hs[i] = &flat[i]
	}
	return hs
}

// Spec is the selector's wiring — handlers, per-host congestion grouping —
// as the start of an engine description (see sim.Build).
func (s *Selector) Spec(kind sim.EngineKind, seed uint64) sim.Spec {
	groups, group := s.ov.Group()
	return sim.Spec{Kind: kind, Handlers: s.Handlers(), Seed: seed, Groups: groups, Group: group}
}

// NewSyncEngine wires the selector into a synchronous engine.
func (s *Selector) NewSyncEngine(seed uint64) *sim.SyncEngine {
	return sim.Build(s.Spec(sim.KindSync, seed)).(*sim.SyncEngine)
}

// OnDone, when set, is invoked in the anchor's context as soon as the
// selection completes — host protocols (Seap) chain their next phase here.
func (s *Selector) SetOnDone(f func(ctx *sim.Context, res Result)) { s.onDone = f }

// SetLoad sets the hook through which an embedded selection's first start
// (window or sample) installs each node's candidates: the host returns the
// elements it stores at self, and the node keeps the slice.
func (s *Selector) SetLoad(f func(ctx *sim.Context, self *ldb.VInfo) []prio.Element) { s.load = f }

// SetObs attaches a phase-timeline collector: every anchor-driven phase
// transition (window, prune, sort, boundary, rank, answer) is marked on it
// so delivered messages attribute to the paper's phases. nil detaches.
func (s *Selector) SetObs(c *obs.Collector) { s.col = c }

// NodeAt exposes the per-virtual-node KSelect state for host protocols
// that embed the selector and dispatch its messages themselves.
func (s *Selector) NodeAt(id sim.NodeID) *Node { return s.nodes[id] }

// AddNode grows the selector by one virtual node, for host protocols with
// dynamic membership. The new node starts with no candidates.
func (s *Selector) AddNode() *Node {
	n := &Node{sel: s, runner: s.protos.Runner()}
	s.nodes = append(s.nodes, n)
	return n
}

// HolderStats returns the mean and maximum number of distribution-tree
// holders hosted per virtual node over the run — the Lemma 4.5
// participation experiment.
func (s *Selector) HolderStats() (mean float64, max int) {
	total := 0
	for _, n := range s.nodes {
		total += n.holdersCreated
		if n.holdersCreated > max {
			max = n.holdersCreated
		}
	}
	return float64(total) / float64(len(s.nodes)), max
}

// SortingRounds returns how many sorting rounds (epochs) ran.
func (s *Selector) SortingRounds() int { return int(s.epoch) }

// StartEmbedded begins a selection whose candidates the host installs at
// its first start (SetLoad); total is their global count (known at the
// host's anchor). State from previous selections is discarded.
func (s *Selector) StartEmbedded(ctx *sim.Context, k, total int64) {
	s.m = total
	s.result = Result{}
	s.p2Iter = 0
	s.fullWindow = 0
	s.Start(ctx, k)
}

// Start begins the selection of rank k (1-based) from the anchor's
// context. The caller then drives the engine until Done.
func (s *Selector) Start(ctx *sim.Context, k int64) {
	if k < 1 || k > s.m {
		panic("kselect: rank out of range")
	}
	s.k = k
	s.n = s.m
	// q with m ≤ n^q (the anchor knows n and m, §4).
	s.q = 1
	for pow := int64(s.ov.N); pow < s.m && s.q < 62; s.q++ {
		pow *= int64(s.ov.N)
	}
	s.delta = initialDelta(s.ov.N)
	s.lo, s.hi = prio.MinKey, prio.MaxKey
	s.p1Iter = 0
	s.first = true
	if !s.phase1Needed() {
		s.result.Phase1Skipped = true
		s.result.CandidatesAfterP1 = s.m
		s.enterPhase2Or3(ctx)
		return
	}
	s.startWindow(ctx)
}

// phase1Needed reports m > n^{3/2} (n processes). At or below it Lemma
// 4.4's post-condition, N = O(n^{3/2} log n), already holds, and phase 1
// would prune nothing. The products are compared in float64, exact for
// every m and n a simulation reaches.
func (s *Selector) phase1Needed() bool {
	n := float64(s.ov.N)
	return float64(s.m)*float64(s.m) > n*n*n
}

// Done reports whether the selection finished.
func (s *Selector) Done() bool { return s.phase == phaseDone }

// Result returns the selection outcome (valid once Done).
func (s *Selector) Result() Result { return s.result }

// Anchor returns the anchor virtual node id.
func (s *Selector) Anchor() sim.NodeID { return s.ov.Anchor }

// initialDelta is the paper's δ ∈ Θ(√log n · n^¼) with a constant small
// enough that pruning happens at simulation scales; correctness does not
// depend on the constant (failed windows retry with doubled δ). The
// constant follows the sample (sampleSize, ≈ √n): the target's order in a
// sample of n′ strays from kn′/N by O(√n′), so δ scales with √n′, and
// 0.5/√6 at √n matches the 0.5/√3 tuned for a sample of 2√n.
func initialDelta(n int) float64 {
	d := 0.5 / math.Sqrt(6) * math.Sqrt(math.Log2(float64(n)+1)) * math.Pow(float64(n), 0.25)
	if d < 1 {
		d = 1
	}
	return d
}

// sqrtN is the phase-2 exit threshold √n (on the number of processes).
func (s *Selector) sqrtN() int64 {
	return int64(mathx.ISqrt(s.ov.N))
}

// maxP1Iters is log(q)+1 (Algorithm 2, Phase 1).
func (s *Selector) maxP1Iters() int {
	return mathx.Log2Ceil(s.q) + 1
}

// next advances the anchor's state machine; called from AtRoot callbacks.
func (s *Selector) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// selHandler adapts a Node to sim.Handler.
type selHandler struct {
	n  *Node
	id sim.NodeID
}

func (sh *selHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if m, ok := msg.(*ldb.RouteMsg); ok {
		self := sh.n.sel.ov.Info(sh.id)
		if ldb.Forward(ctx, sh.n.sel.ov, self, m) {
			if !sh.n.HandleRouted(ctx, self, m.Payload) {
				panic("kselect: unexpected routed payload")
			}
		}
		return
	}
	if !sh.n.Handle(ctx, sh.id, from, msg) {
		panic("kselect: unexpected message")
	}
}

func (sh *selHandler) Activate(*sim.Context) {}
func (sh *selHandler) Passive() bool         { return true }
