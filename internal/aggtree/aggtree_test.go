package aggtree

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// aggNode hosts a Runner for testing.
type aggNode struct {
	ov *ldb.Overlay
	r  Runner
}

func (n *aggNode) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if !n.r.Handle(ctx, n.ov.Info(ctx.ID()), from, msg) {
		panic("unexpected message")
	}
}

func (n *aggNode) Activate(*sim.Context) {}

func buildNetwork(n int, seed uint64, register func(t *Table)) (*ldb.Overlay, *sim.SyncEngine, []*aggNode) {
	return buildOn(ldb.New(n, hashutil.New(seed)), register)
}

// buildOn registers one Table and hosts a Runner on it at every virtual
// node of ov.
func buildOn(ov *ldb.Overlay, register func(t *Table)) (*ldb.Overlay, *sim.SyncEngine, []*aggNode) {
	tab := &Table{}
	register(tab)
	nodes := make([]*aggNode, ov.NumVirtual())
	handlers := make([]sim.Handler, ov.NumVirtual())
	for i := range handlers {
		nodes[i] = &aggNode{ov: ov, r: tab.Runner()}
		handlers[i] = nodes[i]
	}
	groups, group := ov.Group()
	eng := sim.Build(sim.Spec{Handlers: handlers, Seed: 1, Groups: groups, Group: group}).(*sim.SyncEngine)
	return ov, eng, nodes
}

// countProto counts participating virtual nodes — the example of §2.2.
func countProto(result *int64, done *bool) *Proto {
	return &Proto{
		Name: "count",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value) Value {
			return IntVal(1)
		},
		Combine: func(self *ldb.VInfo, seq uint64, params Value, own Value, kids []KidValue) Value {
			t := own.(IntVal)
			for _, kv := range kids {
				t += kv.V.(IntVal)
			}
			return t
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, combined Value) Value {
			*result = int64(combined.(IntVal))
			*done = true
			return nil
		},
	}
}

func TestCountAggregation(t *testing.T) {
	for _, n := range []int{1, 2, 5, 32} {
		var result int64
		var done bool
		ov, eng, nodes := buildNetwork(n, uint64(n)+100, func(t *Table) {
			t.Register(1, countProto(&result, &done))
		})
		nodes[ov.Anchor].r.Start(eng.Context(ov.Anchor), ov.Info(ov.Anchor), 1, 0, nil)
		ok := eng.RunUntil(func() bool { return done }, 100*(mathx.Log2Ceil(n)+2))
		if !ok {
			t.Fatalf("n=%d: aggregation never completed", n)
		}
		if result != int64(3*n) {
			t.Fatalf("n=%d: counted %d virtual nodes, want %d", n, result, 3*n)
		}
	}
}

func TestAggregationRounds(t *testing.T) {
	// One gather costs O(height) rounds.
	for _, n := range []int{8, 64, 256} {
		var result int64
		var done bool
		ov, eng, nodes := buildNetwork(n, uint64(n)+7, func(t *Table) {
			t.Register(1, countProto(&result, &done))
		})
		nodes[ov.Anchor].r.Start(eng.Context(ov.Anchor), ov.Info(ov.Anchor), 1, 0, nil)
		eng.RunUntil(func() bool { return done }, 10000)
		if result != int64(3*n) {
			t.Fatalf("count=%d", result)
		}
		if eng.Metrics().Rounds > 3*ov.TreeHeight()+4 {
			t.Fatalf("n=%d: %d rounds for height %d", n, eng.Metrics().Rounds, ov.TreeHeight())
		}
	}
}

// scatterProto gives every node a distinct share [lo,hi) of [0, total):
// the interval-decomposition pattern of Skeap Phase 3.
type share struct{ lo, hi int64 }

func TestGatherScatterDecomposition(t *testing.T) {
	n := 24
	ov := ldb.New(n, hashutil.New(55))
	shares := make(map[sim.NodeID]share)
	received := 0

	proto := &Proto{
		Name: "alloc",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value) Value {
			// Each virtual node wants (id mod 3) + 1 slots.
			return IntVal(int64(self.ID)%3 + 1)
		},
		Combine: func(self *ldb.VInfo, seq uint64, params Value, own Value, kids []KidValue) Value {
			t := own.(IntVal)
			for _, kv := range kids {
				t += kv.V.(IntVal)
			}
			return t
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, combined Value) Value {
			return IntervalVal{Lo: 0, Hi: int64(combined.(IntVal)) - 1}
		},
		Split: func(self *ldb.VInfo, seq uint64, params Value, down Value, own Value, kids []KidValue) (Value, []Value) {
			iv := down.(IntervalVal)
			lo := iv.Lo
			ownPart := IntervalVal{Lo: lo, Hi: lo + int64(own.(IntVal)) - 1}
			lo = ownPart.Hi + 1
			parts := make([]Value, len(kids))
			for i, kv := range kids {
				parts[i] = IntervalVal{Lo: lo, Hi: lo + int64(kv.V.(IntVal)) - 1}
				lo = lo + int64(kv.V.(IntVal))
			}
			if lo != iv.Hi+1 {
				panic("split does not cover")
			}
			return ownPart, parts
		},
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, ownPart Value) {
			iv := ownPart.(IntervalVal)
			shares[self.ID] = share{lo: iv.Lo, hi: iv.Hi + 1}
			received++
		},
	}

	_, eng, nodes := buildOn(ov, func(t *Table) { t.Register(2, proto) })
	nodes[ov.Anchor].r.Start(eng.Context(ov.Anchor), ov.Info(ov.Anchor), 2, 0, nil)
	ok := eng.RunUntil(func() bool { return received == 3*n }, 10000)
	if !ok {
		t.Fatalf("scatter incomplete: %d/%d", received, 3*n)
	}

	// Shares must partition [0, total) without gaps or overlaps.
	var total int64
	for i := 0; i < 3*n; i++ {
		total += int64(i)%3 + 1
	}
	covered := make([]int, total)
	for id, s := range shares {
		want := int64(id)%3 + 1
		if s.hi-s.lo != want {
			t.Fatalf("node %d got %d slots, want %d", id, s.hi-s.lo, want)
		}
		for p := s.lo; p < s.hi; p++ {
			covered[p]++
		}
	}
	for p, c := range covered {
		if c != 1 {
			t.Fatalf("position %d covered %d times", p, c)
		}
	}
}

func TestSequentialInstances(t *testing.T) {
	// The same proto must run as independent sequential instances.
	n := 6
	ov := ldb.New(n, hashutil.New(77))
	var result int64
	var done bool
	_, eng, nodes := buildOn(ov, func(t *Table) { t.Register(1, countProto(&result, &done)) })
	for seq := uint64(0); seq < 3; seq++ {
		done = false
		nodes[ov.Anchor].r.Start(eng.Context(ov.Anchor), ov.Info(ov.Anchor), 1, seq, nil)
		if !eng.RunUntil(func() bool { return done }, 10000) {
			t.Fatalf("instance %d stuck", seq)
		}
		if result != int64(3*n) {
			t.Fatalf("instance %d: count=%d", seq, result)
		}
	}
}

func TestDuplicateTagPanics(t *testing.T) {
	tab := &Table{}
	tab.Register(1, &Proto{Name: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.Register(1, &Proto{Name: "b"})
}

func TestStartAtNonAnchorPanics(t *testing.T) {
	ov := ldb.New(2, hashutil.New(1))
	tab := &Table{}
	tab.Register(1, &Proto{Name: "x"})
	r := tab.Runner()
	var notAnchor sim.NodeID
	for i := range ov.V {
		if sim.NodeID(i) != ov.Anchor {
			notAnchor = sim.NodeID(i)
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Start(nil, ov.Info(notAnchor), 1, 0, nil)
}

// TestKeyHull: the hull of key ranges takes the smallest Lo and the
// largest Hi; the "none" sentinel range (MaxKey, MinKey) is its identity.
func TestKeyHull(t *testing.T) {
	k := func(p uint64) prio.Key { return prio.Key{Prio: prio.Priority(p), ID: 1} }
	none := KeyRangeVal{Lo: prio.MaxKey, Hi: prio.MinKey}
	kids := []KidValue{{V: KeyRangeVal{Lo: k(3), Hi: k(5)}}, {V: none}, {V: KeyRangeVal{Lo: k(1), Hi: k(4)}}}
	if got, want := KeyHull(nil, 0, nil, KeyRangeVal{Lo: k(2), Hi: k(9)}, kids), (KeyRangeVal{Lo: k(1), Hi: k(9)}); got != want {
		t.Fatalf("hull %v, want %v", got, want)
	}
	if got := KeyHull(nil, 0, nil, none, kids[1:2]); got != none {
		t.Fatalf("hull of nothing %v, want the sentinel", got)
	}
}

func TestValueBits(t *testing.T) {
	if IntVal(0).Bits() < 1 || IntVal(-5).Bits() <= IntVal(0).Bits() {
		t.Fatal("IntVal bit accounting")
	}
	if (Int2Val{A: 3, B: 4}).Bits() != IntVal(3).Bits()+IntVal(4).Bits() {
		t.Fatal("Int2Val bit accounting")
	}
	if (IntervalVal{Lo: 1, Hi: 0}).Size() != 0 || (IntervalVal{Lo: 1, Hi: 3}).Size() != 3 {
		t.Fatal("IntervalVal size")
	}
	if (NilVal{}).Bits() != 1 {
		t.Fatal("NilVal bits")
	}
	up := &UpMsg{Tag: 1, Seq: 0, V: IntVal(1)}
	if up.Bits() <= IntVal(1).Bits() {
		t.Fatal("UpMsg header not accounted")
	}
	st := &StartMsg{Tag: 1}
	if st.Bits() <= 0 {
		t.Fatal("StartMsg bits")
	}
	dn := &DownMsg{Tag: 1, V: NilVal{}}
	if dn.Bits() <= 1 {
		t.Fatal("DownMsg bits")
	}
}

// TestContributeConvergecast: a contributed instance has no start wave.
// Nodes contribute in whatever round their work ends, children before or
// after their parents, and the anchor's AtRoot sees every contribution
// after one up message per non-anchor node.
func TestContributeConvergecast(t *testing.T) {
	for _, n := range []int{1, 5, 32} {
		var result int64
		var done bool
		ov, eng, nodes := buildNetwork(n, uint64(n)+300, func(t *Table) {
			t.Register(1, countProto(&result, &done))
		})
		var starts, ups int
		eng.SetObserver(func(d sim.Delivery) {
			switch d.Msg.(type) {
			case *StartMsg:
				starts++
			case *UpMsg:
				ups++
			}
		})
		round, pending := 0, len(nodes)
		ok := eng.RunUntil(func() bool {
			for id := range nodes {
				if (id*7)%11 == round {
					nodes[id].r.Contribute(eng.Context(sim.NodeID(id)), ov.Info(sim.NodeID(id)), 1, 9, IntVal(1))
					pending--
				}
			}
			round++
			return done
		}, 100*(mathx.Log2Ceil(n)+2))
		if !ok || pending != 0 {
			t.Fatalf("n=%d: convergecast never completed (%d nodes still to contribute)", n, pending)
		}
		if result != int64(len(nodes)) || starts != 0 || ups != len(nodes)-1 {
			t.Fatalf("n=%d: counted %d of %d nodes with %d starts and %d ups, want 0 starts and %d ups",
				n, result, len(nodes), starts, ups, len(nodes)-1)
		}
	}
}

// TestContributeTwicePanics: a node contributes once per instance (caught
// while it waits for its children), and only to a gather.
func TestContributeTwicePanics(t *testing.T) {
	var result int64
	var done bool
	ov, eng, nodes := buildNetwork(5, 77, func(t *Table) {
		t.Register(1, countProto(&result, &done))
		t.Register(2, &Proto{Name: "scatter", Split: func(self *ldb.VInfo, seq uint64, params Value, down Value, own Value, kids []KidValue) (Value, []Value) {
			return down, make([]Value, len(kids))
		}})
	})
	a := ov.Anchor
	ctx, self := eng.Context(a), ov.Info(a)
	nodes[a].r.Contribute(ctx, self, 1, 3, IntVal(1))
	for name, f := range map[string]func(){
		"twice":   func() { nodes[a].r.Contribute(ctx, self, 1, 3, IntVal(1)) },
		"scatter": func() { nodes[a].r.Contribute(ctx, self, 2, 3, IntVal(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
