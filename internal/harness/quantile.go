package harness

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

// sketchResult is the estimator's outcome.
type sketchResult struct {
	Estimate prio.Element // the sampled element closest to the quantile
	Count    int64        // exact total number of elements
	Sampled  int          // sketch size actually gathered
	Found    bool
}

// quantileEstimator is a one-phase approximate quantile estimator over
// the aggregation tree, as a comparison point for KSelect: §1.3
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
//
// The estimator runs over an overlay whose virtual nodes hold elements.
type quantileEstimator struct {
	ov     *ldb.Overlay
	hasher hashutil.Hasher
	k      int
	nodes  []*sketchNode
	protos aggtree.Table

	seq    uint64
	phi    float64
	result sketchResult
	done   bool
}

type sketchNode struct {
	est    *quantileEstimator
	runner aggtree.Runner
	elems  []prio.Element
}

// newQuantileEstimator creates an estimator with sketch size k over the
// overlay.
func newQuantileEstimator(ov *ldb.Overlay, hasher hashutil.Hasher, k int) *quantileEstimator {
	if k < 1 {
		panic("quantile sketch: sketch size must be positive")
	}
	e := &quantileEstimator{ov: ov, hasher: hasher, k: k}
	e.protos.Register(tagSketch, e.proto())
	e.nodes = make([]*sketchNode, ov.NumVirtual())
	for i := range e.nodes {
		e.nodes[i] = &sketchNode{est: e, runner: e.protos.Runner()}
	}
	return e
}

// Load places elements at a virtual node.
func (e *quantileEstimator) Load(id sim.NodeID, elems ...prio.Element) {
	e.nodes[id].elems = append(e.nodes[id].elems, elems...)
}

// spec describes the estimator's synchronous engine.
func (e *quantileEstimator) spec(seed uint64) sim.Spec {
	hs := make([]sim.Handler, len(e.nodes))
	for i, nd := range e.nodes {
		hs[i] = &sketchHandler{n: nd, id: sim.NodeID(i)}
	}
	groups, group := e.ov.Group()
	return sim.Spec{Handlers: hs, Seed: seed, Groups: groups, Group: group}
}

// Start estimates the φ-quantile (φ ∈ (0,1]) from the anchor's context.
func (e *quantileEstimator) Start(ctx *sim.Context, phi float64) {
	if phi <= 0 || phi > 1 {
		panic("quantile sketch: φ out of (0,1]")
	}
	e.phi = phi
	e.done = false
	e.seq++
	anchor := e.nodes[e.ov.Anchor]
	anchor.runner.Start(ctx, e.ov.Info(e.ov.Anchor), tagSketch, e.seq, nil)
}

// Done reports completion; Result returns the estimate.
func (e *quantileEstimator) Done() bool           { return e.done }
func (e *quantileEstimator) Result() sketchResult { return e.result }

// Anchor returns the anchor id.
func (e *quantileEstimator) Anchor() sim.NodeID { return e.ov.Anchor }

// tagOf derives the element's sketch tag from the public hash family.
func (e *quantileEstimator) tagOf(el prio.Element) uint64 {
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

func (e *quantileEstimator) proto() *aggtree.Proto {
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
			e.result = sketchResult{Count: s.Count, Sampled: len(s.Items)}
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
	}
}

type sketchHandler struct {
	n  *sketchNode
	id sim.NodeID
}

func (h *sketchHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if !h.n.runner.Handle(ctx, h.n.est.ov.Info(h.id), from, msg) {
		panic("quantile sketch: unexpected message")
	}
}

func (h *sketchHandler) Activate(*sim.Context) {}
func (h *sketchHandler) Passive() bool         { return true }
