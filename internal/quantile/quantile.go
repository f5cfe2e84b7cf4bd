// Package quantile implements a one-phase approximate quantile estimator
// over the aggregation tree, as a comparison point for KSelect: §1.3
// discusses Haeupler, Mohapatra & Su [HMS18], who obtain approximate
// quantiles by sampling before refining to exactness. This estimator is
// the sampling half alone: every node contributes a bottom-k sketch of
// its elements (the k elements with the smallest pseudorandom tag —
// uniform without replacement, and mergeable: the union of bottom-k
// sketches is the bottom-k sketch of the union), so a single gather gives
// the anchor a uniform sample of all N elements plus the exact count.
// The φ-quantile estimate is the ⌈φ·k⌉-th smallest sampled element; its
// rank error is O(N/√k) w.h.p.
//
// Experiment E21 contrasts this with KSelect: one O(log n)-round phase
// with O(k·log n)-bit messages and approximate answers, versus KSelect's
// many phases with O(log n)-bit messages and an exact answer.
package quantile

import (
	"sort"

	"dpq/internal/aggtree"
	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

const tagSketch aggtree.Tag = 40

// tagged pairs an element with its pseudorandom sketch tag.
type tagged struct {
	tag  uint64
	elem prio.Element
}

// sketchVal is the mergeable bottom-k sketch plus the exact count.
type sketchVal struct {
	Count int64
	Items []tagged // ascending by tag, ≤ k entries
}

// Bits accounts the count and each sketched element (tag + key).
func (v *sketchVal) Bits() int { return 64 + len(v.Items)*(64+128) }

// Result is the estimator's outcome.
type Result struct {
	Estimate prio.Element // the sampled element closest to the quantile
	Count    int64        // exact total number of elements
	Sampled  int          // sketch size actually gathered
	Found    bool
}

// Estimator drives one-phase quantile estimation over an overlay whose
// virtual nodes hold elements.
type Estimator struct {
	ov     *ldb.Overlay
	hasher hashutil.Hasher
	k      int
	nodes  []*node
	protos aggtree.Table

	seq    uint64
	phi    float64
	result Result
	done   bool
}

type node struct {
	est    *Estimator
	runner aggtree.Runner
	elems  []prio.Element
}

// New creates an estimator with sketch size k over the overlay.
func New(ov *ldb.Overlay, hasher hashutil.Hasher, k int) *Estimator {
	if k < 1 {
		panic("quantile: sketch size must be positive")
	}
	e := &Estimator{ov: ov, hasher: hasher, k: k}
	e.protos.Register(tagSketch, e.proto())
	e.nodes = make([]*node, ov.NumVirtual())
	for i := range e.nodes {
		e.nodes[i] = &node{est: e, runner: e.protos.Runner()}
	}
	return e
}

// Load places elements at a virtual node.
func (e *Estimator) Load(id sim.NodeID, elems ...prio.Element) {
	e.nodes[id].elems = append(e.nodes[id].elems, elems...)
}

// Handlers returns the per-virtual-node sim handlers.
func (e *Estimator) Handlers() []sim.Handler {
	hs := make([]sim.Handler, len(e.nodes))
	for i, nd := range e.nodes {
		hs[i] = &handler{n: nd, id: sim.NodeID(i)}
	}
	return hs
}

// NewSyncEngine wires the estimator into a synchronous engine.
func (e *Estimator) NewSyncEngine(seed uint64) *sim.SyncEngine {
	groups, group := e.ov.Group()
	return sim.Build(sim.Spec{Handlers: e.Handlers(), Seed: seed, Groups: groups, Group: group}).(*sim.SyncEngine)
}

// Start estimates the φ-quantile (φ ∈ (0,1]) from the anchor's context.
func (e *Estimator) Start(ctx *sim.Context, phi float64) {
	if phi <= 0 || phi > 1 {
		panic("quantile: φ out of (0,1]")
	}
	e.phi = phi
	e.done = false
	e.seq++
	anchor := e.nodes[e.ov.Anchor]
	anchor.runner.Start(ctx, e.ov.Info(e.ov.Anchor), tagSketch, e.seq, nil)
}

// Done reports completion; Result returns the estimate.
func (e *Estimator) Done() bool     { return e.done }
func (e *Estimator) Result() Result { return e.result }

// Anchor returns the anchor id.
func (e *Estimator) Anchor() sim.NodeID { return e.ov.Anchor }

// tagOf derives the element's sketch tag from the public hash family.
func (e *Estimator) tagOf(el prio.Element) uint64 {
	return e.hasher.Pair(0x9e3779b9, uint64(el.ID))
}

// mergeBottomK merges ascending-by-tag sketches, keeping the k smallest
// tags overall.
func mergeBottomK(k int, sketches ...[]tagged) []tagged {
	var all []tagged
	for _, s := range sketches {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].tag < all[j].tag })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func (e *Estimator) proto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "quantile-sketch",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, _ aggtree.Value) aggtree.Value {
			n := e.nodes[self.ID]
			items := make([]tagged, 0, len(n.elems))
			for _, el := range n.elems {
				items = append(items, tagged{tag: e.tagOf(el), elem: el})
			}
			return &sketchVal{
				Count: int64(len(n.elems)),
				Items: mergeBottomK(e.k, items),
			}
		},
		Combine: func(self *ldb.VInfo, seq uint64, _ aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			out := own.(*sketchVal)
			sketches := [][]tagged{out.Items}
			for _, kv := range kids {
				s := kv.V.(*sketchVal)
				out.Count += s.Count
				sketches = append(sketches, s.Items)
			}
			out.Items = mergeBottomK(e.k, sketches...)
			return out
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, _ aggtree.Value, combined aggtree.Value) aggtree.Value {
			s := combined.(*sketchVal)
			e.result = Result{Count: s.Count, Sampled: len(s.Items)}
			if len(s.Items) > 0 {
				// Order the uniform sample by element key and pick the
				// φ-fraction entry.
				sample := make([]prio.Element, len(s.Items))
				for i, it := range s.Items {
					sample[i] = it.elem
				}
				sort.Slice(sample, func(i, j int) bool { return sample[i].Less(sample[j]) })
				idx := int(e.phi*float64(len(sample))) - 1
				if idx < 0 {
					idx = 0
				}
				e.result.Estimate = sample[idx]
				e.result.Found = true
			}
			e.done = true
			return nil
		},
		GatherOnly: true,
	}
}

type handler struct {
	n  *node
	id sim.NodeID
}

func (h *handler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if !h.n.runner.Handle(ctx, h.n.est.ov.Info(h.id), from, msg) {
		panic("quantile: unexpected message")
	}
}

func (h *handler) Activate(*sim.Context) {}
func (h *handler) Passive() bool         { return true }
