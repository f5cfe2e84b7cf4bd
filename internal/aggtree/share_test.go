package aggtree

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/sim"
)

// startRecorder hosts a Runner and remembers every StartMsg it receives.
type startRecorder struct {
	info   func() *ldb.VInfo
	r      Runner
	starts []*StartMsg
}

func (n *startRecorder) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if m, ok := msg.(*StartMsg); ok {
		n.starts = append(n.starts, m)
	}
	if !n.r.Handle(ctx, n.info(), from, msg) {
		panic("unexpected message")
	}
}

func (n *startRecorder) Activate(*sim.Context) {}

// record builds one recorder per virtual node, all on one Table.
func record(infos []*ldb.VInfo, tab *Table) ([]*startRecorder, *sim.SyncEngine) {
	nodes := make([]*startRecorder, len(infos))
	handlers := make([]sim.Handler, len(infos))
	for i := range nodes {
		info := infos[i]
		nodes[i] = &startRecorder{info: func() *ldb.VInfo { return info }, r: tab.Runner()}
		handlers[i] = nodes[i]
	}
	return nodes, sim.Build(sim.Spec{Handlers: handlers, Seed: 1}).(*sim.SyncEngine)
}

// TestStartMsgForwarded: the anchor's StartMsg is the one value every
// other node of the tree receives — each node forwards what it got instead
// of allocating a copy per child — and no node modifies it.
func TestStartMsgForwarded(t *testing.T) {
	var result int64
	var done bool
	ov := ldb.New(24, hashutil.New(91))
	tab := &Table{}
	tab.Register(1, countProto(&result, &done))
	infos := make([]*ldb.VInfo, ov.NumVirtual())
	for i := range infos {
		infos[i] = ov.Info(sim.NodeID(i))
	}
	nodes, eng := record(infos, tab)
	nodes[ov.Anchor].r.Start(eng.Context(ov.Anchor), ov.Info(ov.Anchor), 1, 5, IntVal(7))
	if !eng.RunUntil(func() bool { return done }, 10000) || result != int64(ov.NumVirtual()) {
		t.Fatalf("count %d of %d virtual nodes", result, ov.NumVirtual())
	}
	var first *StartMsg
	twoKids := 0
	for id, n := range nodes {
		if sim.NodeID(id) == ov.Anchor {
			if len(n.starts) != 0 {
				t.Fatal("the anchor received a StartMsg")
			}
			continue
		}
		if len(n.starts) != 1 {
			t.Fatalf("node %d received %d StartMsgs", id, len(n.starts))
		}
		if first == nil {
			first = n.starts[0]
		}
		if n.starts[0] != first {
			t.Fatalf("node %d received a different StartMsg value", id)
		}
		if len(ov.Info(sim.NodeID(id)).Children) == 2 {
			twoKids++
		}
	}
	if twoKids == 0 {
		t.Fatal("no node with two children: the overlay does not exercise forwarding")
	}
	if *first != (StartMsg{Tag: 1, Seq: 5, Params: IntVal(7)}) {
		t.Fatalf("StartMsg modified in flight: %+v", *first)
	}
}

// TestThreeChildren: LDB trees give a node at most two children, which the
// instance state holds inline; a wider node spills past the inline buffer
// and must still gather and scatter every child's share.
func TestThreeChildren(t *testing.T) {
	infos := []*ldb.VInfo{{ID: 0, Parent: sim.None, Children: []sim.NodeID{1, 2, 3}}}
	for i := sim.NodeID(1); i <= 3; i++ {
		infos = append(infos, &ldb.VInfo{ID: i, Parent: 0})
	}
	got := make(map[sim.NodeID]IntervalVal)
	tab := &Table{}
	tab.Register(2, &Proto{
		Name: "wide",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value) Value {
			return IntVal(int64(self.ID) + 1)
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
			lo := down.(IntervalVal).Lo
			ownPart := IntervalVal{Lo: lo, Hi: lo + int64(own.(IntVal)) - 1}
			lo = ownPart.Hi + 1
			parts := make([]Value, len(kids))
			for i, kv := range kids {
				parts[i] = IntervalVal{Lo: lo, Hi: lo + int64(kv.V.(IntVal)) - 1}
				lo = parts[i].(IntervalVal).Hi + 1
			}
			return ownPart, parts
		},
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, ownPart Value) {
			got[self.ID] = ownPart.(IntervalVal)
		},
	})
	nodes, eng := record(infos, tab)
	nodes[0].r.Start(eng.Context(0), infos[0], 2, 0, nil)
	if !eng.RunUntil(func() bool { return len(got) == 4 }, 100) {
		t.Fatalf("scatter reached %d of 4 nodes", len(got))
	}
	// Sizes 1..4 over [0, 10): each node's share has its own size, and the
	// shares tile the interval.
	covered := make([]int, 10)
	for id, iv := range got {
		if iv.Size() != int64(id)+1 {
			t.Fatalf("node %d got %+v, want %d slots", id, iv, id+1)
		}
		for p := iv.Lo; p <= iv.Hi; p++ {
			covered[p]++
		}
	}
	for p, c := range covered {
		if c != 1 {
			t.Fatalf("position %d covered %d times", p, c)
		}
	}
}

// TestKindAllocationFree: instrumentation names every observed delivery, so
// naming a tree message must not allocate, and the names are the trace
// schema's.
func TestKindAllocationFree(t *testing.T) {
	for _, c := range []struct {
		msg  sim.Message
		want string
	}{
		{&StartMsg{Tag: 13}, "tree/start[13]"},
		{&UpMsg{Tag: 255, V: NilVal{}}, "tree/up[255]"},
		{&DownMsg{Tag: 0, V: NilVal{}}, "tree/down[0]"},
	} {
		if got := sim.KindOf(c.msg); got != c.want {
			t.Fatalf("kind %q, want %q", got, c.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { sim.KindOf(c.msg) }); allocs != 0 {
			t.Fatalf("%s: %v allocations per KindOf", c.want, allocs)
		}
	}
}
