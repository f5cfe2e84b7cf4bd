package harness

import (
	"sort"

	"dpq/internal/aggtree"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// elemListVal is a full element list aggregate — the payload of the
// gather-all selection baseline. Its size is what breaks the O(log n)-bit
// message budget near the root.
type elemListVal struct {
	Elems []prio.Element
}

// Bits accounts every element.
func (v *elemListVal) Bits() int {
	b := 16
	for _, e := range v.Elems {
		b += e.Bits()
	}
	return b
}

const (
	tagGatherAll aggtree.Tag = 30
	tagCountLeq  aggtree.Tag = 31
	tagFetchKey  aggtree.Tag = 32
)

// selectResult is the outcome of a baseline selection run.
type selectResult struct {
	Elem   prio.Element
	Found  bool
	Phases int // aggregation phases used
}

// baselineSelector is a baseline k-selection driver over an overlay whose
// virtual nodes hold elements.
type baselineSelector struct {
	ov     *ldb.Overlay
	nodes  []*selNode
	mode   selectMode
	protos aggtree.Table

	// anchor state
	k       int64
	lo, hi  prio.Key
	loCount int64 // elements with key ≤ lo (exclusive bound bookkeeping)
	seq     uint64
	phases  int
	result  selectResult
	done    bool
}

// selectMode selects the baseline algorithm.
type selectMode int

// Baseline selection algorithms.
const (
	gatherAll selectMode = iota
	binarySearch
)

type selNode struct {
	s      *baselineSelector
	runner aggtree.Runner
	elems  []prio.Element
}

// newBaselineSelector creates a baseline selector in the given mode.
func newBaselineSelector(ov *ldb.Overlay, mode selectMode) *baselineSelector {
	s := &baselineSelector{ov: ov, mode: mode}
	s.protos.Register(tagGatherAll, s.gatherAllProto())
	s.protos.Register(tagCountLeq, s.countLeqProto())
	s.protos.Register(tagFetchKey, s.fetchKeyProto())
	s.nodes = make([]*selNode, ov.NumVirtual())
	for i := range s.nodes {
		s.nodes[i] = &selNode{s: s, runner: s.protos.Runner()}
	}
	return s
}

// Load places elements at a virtual node.
func (s *baselineSelector) Load(id sim.NodeID, elems ...prio.Element) {
	s.nodes[id].elems = append(s.nodes[id].elems, elems...)
}

// spec describes the selector's synchronous engine.
func (s *baselineSelector) spec(seed uint64) sim.Spec {
	hs := make([]sim.Handler, len(s.nodes))
	for i, n := range s.nodes {
		hs[i] = &baseSelHandler{n: n, id: sim.NodeID(i)}
	}
	groups, group := s.ov.Group()
	return sim.Spec{Handlers: hs, Seed: seed, Groups: groups, Group: group}
}

// Start begins the selection of rank k from the anchor's context.
func (s *baselineSelector) Start(ctx *sim.Context, k int64) {
	s.k = k
	s.phases = 0
	s.done = false
	anchor := s.nodes[s.ov.Anchor]
	switch s.mode {
	case gatherAll:
		s.phases++
		anchor.runner.Start(ctx, s.ov.Info(s.ov.Anchor), tagGatherAll, s.next(), nil)
	case binarySearch:
		s.lo = prio.MinKey
		s.hi = prio.MaxKey
		s.probe(ctx)
	}
}

// Done reports completion; Result returns the outcome.
func (s *baselineSelector) Done() bool           { return s.done }
func (s *baselineSelector) Result() selectResult { return s.result }

// Anchor returns the anchor id.
func (s *baselineSelector) Anchor() sim.NodeID { return s.ov.Anchor }

func (s *baselineSelector) next() uint64 {
	s.seq++
	return s.seq
}

// probe issues the next count-≤ aggregation of the binary search.
func (s *baselineSelector) probe(ctx *sim.Context) {
	s.phases++
	mid := prio.MidKey(s.lo, s.hi)
	anchor := s.nodes[s.ov.Anchor]
	anchor.runner.Start(ctx, s.ov.Info(s.ov.Anchor), tagCountLeq, s.next(), aggtree.KeyVal(mid))
}

type baseSelHandler struct {
	n  *selNode
	id sim.NodeID
}

func (bh *baseSelHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if !bh.n.runner.Handle(ctx, bh.n.s.ov.Info(bh.id), from, msg) {
		panic("baseline selection: unexpected message")
	}
}

func (bh *baseSelHandler) Activate(*sim.Context) {}
func (bh *baseSelHandler) Passive() bool         { return true }

// gatherAllProto ships every element to the anchor, which sorts locally.
func (s *baselineSelector) gatherAllProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "gather-all",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			return &elemListVal{Elems: append([]prio.Element(nil), n.elems...)}
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			out := own.(*elemListVal)
			for _, kv := range kids {
				out.Elems = append(out.Elems, kv.V.(*elemListVal).Elems...)
			}
			return out
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			all := combined.(*elemListVal).Elems
			if s.k < 1 || s.k > int64(len(all)) {
				s.result = selectResult{Phases: s.phases}
				s.done = true
				return nil
			}
			sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
			s.result = selectResult{Elem: all[s.k-1], Found: true, Phases: s.phases}
			s.done = true
			return nil
		},
	}
}

// countLeqProto counts elements with key ≤ probe.
func (s *baselineSelector) countLeqProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "count-leq",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			probe := prio.Key(params.(aggtree.KeyVal))
			var c int64
			for _, e := range n.elems {
				if prio.KeyOf(e).LessEq(probe) {
					c++
				}
			}
			return aggtree.IntVal(c)
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			t := own.(aggtree.IntVal)
			for _, kv := range kids {
				t += kv.V.(aggtree.IntVal)
			}
			return t
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			mid := prio.Key(params.(aggtree.KeyVal))
			count := int64(combined.(aggtree.IntVal))
			// Invariant: count(≤ lo) < k ≤ count(≤ hi). Narrow to mid.
			if count >= s.k {
				s.hi = mid
			} else {
				s.lo = mid
				s.loCount = count
			}
			if prio.KeysAdjacent(s.lo, s.hi) {
				// hi is the smallest key with count(≤ hi) ≥ k: the answer.
				s.phases++
				s.nodes[self.ID].runner.Start(ctx, self, tagFetchKey, s.next(), aggtree.KeyVal(s.hi))
				return nil
			}
			s.probe(ctx)
			return nil
		},
	}
}

// fetchKeyProto retrieves the element with exactly the given key.
func (s *baselineSelector) fetchKeyProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "fetch-key",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			want := prio.Key(params.(aggtree.KeyVal))
			for _, e := range n.elems {
				if prio.KeyOf(e) == want {
					return &elemListVal{Elems: []prio.Element{e}}
				}
			}
			return &elemListVal{}
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			out := own.(*elemListVal)
			for _, kv := range kids {
				out.Elems = append(out.Elems, kv.V.(*elemListVal).Elems...)
			}
			return out
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			got := combined.(*elemListVal).Elems
			if len(got) != 1 {
				panic("baseline selection: key fetch found no unique element")
			}
			s.result = selectResult{Elem: got[0], Found: true, Phases: s.phases}
			s.done = true
			return nil
		},
	}
}
