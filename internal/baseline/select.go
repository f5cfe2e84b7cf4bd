package baseline

import (
	"sort"

	"dpq/internal/aggtree"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// ElemListVal is a full element list aggregate — the payload of the
// gather-all selection baseline. Its size is what breaks the O(log n)-bit
// message budget near the root.
type ElemListVal struct {
	Elems []prio.Element
}

// Bits accounts every element.
func (v *ElemListVal) Bits() int {
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

// SelectResult is the outcome of a baseline selection run.
type SelectResult struct {
	Elem   prio.Element
	Found  bool
	Phases int // aggregation phases used
}

// Selector is a baseline k-selection driver over an overlay whose virtual
// nodes hold elements.
type Selector struct {
	ov     *ldb.Overlay
	nodes  []*selNode
	mode   Mode
	protos aggtree.Table

	// anchor state
	k       int64
	lo, hi  prio.Key
	loCount int64 // elements with key ≤ lo (exclusive bound bookkeeping)
	seq     uint64
	phases  int
	result  SelectResult
	done    bool
}

// Mode selects the baseline algorithm.
type Mode int

// Baseline selection algorithms.
const (
	GatherAll Mode = iota
	BinarySearch
)

type selNode struct {
	s      *Selector
	runner aggtree.Runner
	elems  []prio.Element
}

// NewSelector creates a baseline selector in the given mode.
func NewSelector(ov *ldb.Overlay, mode Mode) *Selector {
	s := &Selector{ov: ov, mode: mode}
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
func (s *Selector) Load(id sim.NodeID, elems ...prio.Element) {
	s.nodes[id].elems = append(s.nodes[id].elems, elems...)
}

// Handlers returns the sim handlers.
func (s *Selector) Handlers() []sim.Handler {
	hs := make([]sim.Handler, len(s.nodes))
	for i, n := range s.nodes {
		hs[i] = &baseSelHandler{n: n, id: sim.NodeID(i)}
	}
	return hs
}

// NewSyncEngine wires the selector into a synchronous engine.
func (s *Selector) NewSyncEngine(seed uint64) *sim.SyncEngine {
	groups, group := s.ov.Group()
	return sim.Build(sim.Spec{Handlers: s.Handlers(), Seed: seed, Groups: groups, Group: group}).(*sim.SyncEngine)
}

// Start begins the selection of rank k from the anchor's context.
func (s *Selector) Start(ctx *sim.Context, k int64) {
	s.k = k
	s.phases = 0
	s.done = false
	anchor := s.nodes[s.ov.Anchor]
	switch s.mode {
	case GatherAll:
		s.phases++
		anchor.runner.Start(ctx, s.ov.Info(s.ov.Anchor), tagGatherAll, s.next(), nil)
	case BinarySearch:
		s.lo = prio.MinKey
		s.hi = prio.MaxKey
		s.probe(ctx)
	}
}

// Done reports completion; Result returns the outcome.
func (s *Selector) Done() bool           { return s.done }
func (s *Selector) Result() SelectResult { return s.result }

// Anchor returns the anchor id.
func (s *Selector) Anchor() sim.NodeID { return s.ov.Anchor }

func (s *Selector) next() uint64 {
	s.seq++
	return s.seq
}

// probe issues the next count-≤ aggregation of the binary search.
func (s *Selector) probe(ctx *sim.Context) {
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
		panic("baseline: unexpected message")
	}
}

func (bh *baseSelHandler) Activate(*sim.Context) {}
func (bh *baseSelHandler) Passive() bool         { return true }

// gatherAllProto ships every element to the anchor, which sorts locally.
func (s *Selector) gatherAllProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "gather-all",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			return &ElemListVal{Elems: append([]prio.Element(nil), n.elems...)}
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			out := own.(*ElemListVal)
			for _, kv := range kids {
				out.Elems = append(out.Elems, kv.V.(*ElemListVal).Elems...)
			}
			return out
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			all := combined.(*ElemListVal).Elems
			if s.k < 1 || s.k > int64(len(all)) {
				s.result = SelectResult{Phases: s.phases}
				s.done = true
				return nil
			}
			sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
			s.result = SelectResult{Elem: all[s.k-1], Found: true, Phases: s.phases}
			s.done = true
			return nil
		},
		GatherOnly: true,
	}
}

// countLeqProto counts elements with key ≤ probe.
func (s *Selector) countLeqProto() *aggtree.Proto {
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
		GatherOnly: true,
	}
}

// fetchKeyProto retrieves the element with exactly the given key.
func (s *Selector) fetchKeyProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "fetch-key",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			want := prio.Key(params.(aggtree.KeyVal))
			for _, e := range n.elems {
				if prio.KeyOf(e) == want {
					return &ElemListVal{Elems: []prio.Element{e}}
				}
			}
			return &ElemListVal{}
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			out := own.(*ElemListVal)
			for _, kv := range kids {
				out.Elems = append(out.Elems, kv.V.(*ElemListVal).Elems...)
			}
			return out
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			got := combined.(*ElemListVal).Elems
			if len(got) != 1 {
				panic("baseline: key fetch found no unique element")
			}
			s.result = SelectResult{Elem: got[0], Found: true, Phases: s.phases}
			s.done = true
			return nil
		},
		GatherOnly: true,
	}
}
