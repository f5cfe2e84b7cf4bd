package dht

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// dhtNode is a minimal protocol node hosting only a DHT shard.
type dhtNode struct {
	ov *ldb.Overlay
	d  *DHT
}

func (n *dhtNode) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	switch m := msg.(type) {
	case *ldb.RouteMsg:
		if ldb.Forward(ctx, n.ov, n.ov.Info(ctx.ID()), m) {
			if !n.d.HandleRouted(ctx, m.Payload) {
				panic("unexpected routed payload")
			}
		}
	default:
		if !n.d.Handle(ctx, from, msg) {
			panic("unexpected message")
		}
	}
}

func (n *dhtNode) Activate(*sim.Context) {}

func newDHTNet(n int, seed uint64) (*ldb.Overlay, *sim.SyncEngine, []*dhtNode) {
	ov := ldb.New(n, hashutil.New(seed))
	nodes := make([]*dhtNode, ov.NumVirtual())
	handlers := make([]sim.Handler, ov.NumVirtual())
	for i := range handlers {
		nodes[i] = &dhtNode{ov: ov, d: New(ov)}
		handlers[i] = nodes[i]
	}
	groups, group := ov.Group()
	eng := sim.Build(sim.Spec{Handlers: handlers, Seed: seed, Groups: groups, Group: group}).(*sim.SyncEngine)
	return ov, eng, nodes
}

func maxRounds(n int) int { return 300 * (mathx.Log2Ceil(n) + 3) }

func TestPutThenGet(t *testing.T) {
	ov, eng, nodes := newDHTNet(16, 1)
	src := ov.Anchor
	e := prio.Element{ID: 42, Prio: 7, Payload: "hello"}
	acked := false
	nodes[src].d.Put(eng.Context(src), ov.Info(src), 12345, e, func() { acked = true })
	if !eng.RunUntil(func() bool { return acked }, maxRounds(16)) {
		t.Fatal("put never acknowledged")
	}
	var got prio.Element
	found := false
	getter := sim.NodeID(5)
	nodes[getter].d.Get(eng.Context(getter), ov.Info(getter), 12345, func(e prio.Element, ok bool) {
		got, found = e, ok
	})
	if !eng.RunUntil(func() bool { return found }, maxRounds(16)) {
		t.Fatal("get never answered")
	}
	if got != e {
		t.Fatalf("got %v want %v", got, e)
	}
}

func TestGetBeforePutWaits(t *testing.T) {
	// §3.2.4: a Get arriving before its Put waits at the responsible node.
	ov, eng, nodes := newDHTNet(8, 2)
	key := uint64(999)
	var got prio.Element
	found := false
	getter := sim.NodeID(1)
	nodes[getter].d.Get(eng.Context(getter), ov.Info(getter), key, func(e prio.Element, ok bool) {
		got, found = e, ok
	})
	// Let the Get arrive and park.
	for i := 0; i < maxRounds(8); i++ {
		eng.Step()
	}
	if found {
		t.Fatal("get answered before any put")
	}
	e := prio.Element{ID: 1, Prio: 3}
	putter := sim.NodeID(4)
	nodes[putter].d.Put(eng.Context(putter), ov.Info(putter), key, e, nil)
	if !eng.RunUntil(func() bool { return found }, maxRounds(8)) {
		t.Fatal("parked get never matched")
	}
	if got != e {
		t.Fatalf("got %v want %v", got, e)
	}
}

func TestGetRemovesElement(t *testing.T) {
	ov, eng, nodes := newDHTNet(8, 3)
	key := uint64(7)
	src := sim.NodeID(0)
	nodes[src].d.Put(eng.Context(src), ov.Info(src), key, prio.Element{ID: 1, Prio: 1}, nil)
	done := 0
	nodes[src].d.Get(eng.Context(src), ov.Info(src), key, func(prio.Element, bool) { done++ })
	eng.RunUntil(func() bool { return done == 1 }, maxRounds(8))
	// Second get must park (element removed).
	nodes[src].d.Get(eng.Context(src), ov.Info(src), key, func(prio.Element, bool) { done++ })
	for i := 0; i < maxRounds(8); i++ {
		eng.Step()
	}
	if done != 1 {
		t.Fatal("second get should wait: element was removed by the first")
	}
}

func TestSameKeyMultiset(t *testing.T) {
	// Two puts under one key serve two gets (Seap's random keys may
	// collide).
	ov, eng, nodes := newDHTNet(8, 4)
	key := uint64(5)
	src := sim.NodeID(2)
	nodes[src].d.Put(eng.Context(src), ov.Info(src), key, prio.Element{ID: 1, Prio: 1}, nil)
	nodes[src].d.Put(eng.Context(src), ov.Info(src), key, prio.Element{ID: 2, Prio: 2}, nil)
	got := map[prio.ElemID]bool{}
	count := 0
	for i := 0; i < 2; i++ {
		nodes[src].d.Get(eng.Context(src), ov.Info(src), key, func(e prio.Element, ok bool) {
			got[e.ID] = true
			count++
		})
	}
	if !eng.RunUntil(func() bool { return count == 2 }, maxRounds(8)) {
		t.Fatal("gets unanswered")
	}
	if !got[1] || !got[2] {
		t.Fatalf("both elements must be served: %v", got)
	}
}

func TestHopsLogarithmic(t *testing.T) {
	// Lemma 2.2(iii): O(log n) rounds per DHT operation w.h.p.
	for _, n := range []int{8, 64, 256} {
		ov, eng, nodes := newDHTNet(n, uint64(n))
		src := ov.Anchor
		acked := false
		nodes[src].d.Put(eng.Context(src), ov.Info(src), 42, prio.Element{ID: 1, Prio: 1}, func() { acked = true })
		if !eng.RunUntil(func() bool { return acked }, maxRounds(n)) {
			t.Fatalf("n=%d: put unacknowledged", n)
		}
		bound := 45 * (mathx.Log2Ceil(n) + 2)
		if eng.Metrics().Rounds > bound {
			t.Fatalf("n=%d: put took %d rounds (> %d)", n, eng.Metrics().Rounds, bound)
		}
	}
}

func TestUniformDistribution(t *testing.T) {
	// Lemma 2.2(iv): m elements spread ≈ m/n per real node.
	n := 64
	ov, eng, nodes := newDHTNet(n, 5)
	rnd := hashutil.NewRand(6)
	m := 64 * n
	src := ov.Anchor
	for i := 0; i < m; i++ {
		nodes[src].d.Put(eng.Context(src), ov.Info(src), rnd.Uint64(), prio.Element{ID: prio.ElemID(i + 1), Prio: 1}, nil)
	}
	eng.RunQuiescent(func() bool { return true }, 100000)
	perHost := make([]int, n)
	total := 0
	for i, nd := range nodes {
		perHost[ldb.HostOf(sim.NodeID(i))] += nd.d.StoreSize()
		total += nd.d.StoreSize()
	}
	if total != m {
		t.Fatalf("stored %d of %d elements", total, m)
	}
	maxLoad := 0
	for _, l := range perHost {
		if l > maxLoad {
			maxLoad = l
		}
	}
	// Expectation is 64; w.h.p. max load stays within a moderate factor.
	if maxLoad > 8*(m/n) {
		t.Fatalf("max load %d far above mean %d", maxLoad, m/n)
	}
}

func TestOutstandingBookkeeping(t *testing.T) {
	ov, eng, nodes := newDHTNet(4, 7)
	src := ov.Anchor
	nodes[src].d.Get(eng.Context(src), ov.Info(src), 1, func(prio.Element, bool) {})
	if nodes[src].d.Outstanding() != 1 {
		t.Fatal("outstanding request not tracked")
	}
	nodes[src].d.Put(eng.Context(src), ov.Info(src), 1, prio.Element{ID: 1, Prio: 1}, nil)
	eng.RunUntil(func() bool { return nodes[src].d.Outstanding() == 0 }, maxRounds(4))
	if nodes[src].d.Outstanding() != 0 {
		t.Fatal("request never resolved")
	}
}

func TestKeyPointRange(t *testing.T) {
	for _, k := range []uint64{0, 1, ^uint64(0), 1 << 40} {
		p := KeyPoint(k)
		if p < 0 || p >= 1 {
			t.Fatalf("KeyPoint(%d)=%v out of range", k, p)
		}
	}
}

func TestSingleNodeDHT(t *testing.T) {
	ov, eng, nodes := newDHTNet(1, 8)
	src := ov.Anchor
	done := false
	nodes[src].d.Put(eng.Context(src), ov.Info(src), 3, prio.Element{ID: 9, Prio: 2}, nil)
	nodes[src].d.Get(eng.Context(src), ov.Info(src), 3, func(e prio.Element, ok bool) {
		done = ok && e.ID == 9
	})
	if !eng.RunUntil(func() bool { return done }, maxRounds(1)) {
		t.Fatal("single-node DHT broken")
	}
}

func TestPutAckRoundTrip(t *testing.T) {
	ov, eng, nodes := newDHTNet(8, 20)
	src := sim.NodeID(2)
	acks := 0
	for i := 0; i < 5; i++ {
		nodes[src].d.Put(eng.Context(src), ov.Info(src), uint64(100+i), prio.Element{ID: prio.ElemID(i + 1), Prio: 1}, func() { acks++ })
	}
	if !eng.RunUntil(func() bool { return acks == 5 }, maxRounds(8)) {
		t.Fatalf("acks=%d", acks)
	}
	if nodes[src].d.Outstanding() != 0 {
		t.Fatal("outstanding acks remain")
	}
}

func TestMultiplePendingGetsServedInOrder(t *testing.T) {
	// Two parked gets for one key are served by the next two puts in
	// arrival order.
	ov, eng, nodes := newDHTNet(4, 21)
	key := uint64(77)
	src := ov.Anchor
	var got []prio.ElemID
	for i := 0; i < 2; i++ {
		nodes[src].d.Get(eng.Context(src), ov.Info(src), key, func(e prio.Element, ok bool) {
			got = append(got, e.ID)
		})
	}
	for i := 0; i < maxRounds(4); i++ {
		eng.Step()
	}
	nodes[src].d.Put(eng.Context(src), ov.Info(src), key, prio.Element{ID: 10, Prio: 1}, nil)
	eng.RunUntil(func() bool { return len(got) == 1 }, maxRounds(4))
	nodes[src].d.Put(eng.Context(src), ov.Info(src), key, prio.Element{ID: 20, Prio: 1}, nil)
	if !eng.RunUntil(func() bool { return len(got) == 2 }, maxRounds(4)) {
		t.Fatalf("served %d of 2", len(got))
	}
	if got[0] != 10 || got[1] != 20 {
		t.Fatalf("service order %v", got)
	}
}

func TestDumpAbsorbRoundTrip(t *testing.T) {
	ov, eng, nodes := newDHTNet(4, 22)
	src := ov.Anchor
	for i := 0; i < 6; i++ {
		nodes[src].d.Put(eng.Context(src), ov.Info(src), uint64(i), prio.Element{ID: prio.ElemID(i + 1), Prio: 1}, nil)
	}
	eng.RunQuiescent(func() bool { return true }, maxRounds(4))
	total := 0
	var moved int
	for _, nd := range nodes {
		total += nd.d.StoreSize()
		dump := nd.d.Dump()
		if nd.d.StoreSize() != 0 {
			t.Fatal("Dump must clear the shard")
		}
		for k, es := range dump {
			nodes[0].d.Absorb(k, es)
			moved += len(es)
		}
	}
	if total != 6 || moved != 6 {
		t.Fatalf("total=%d moved=%d", total, moved)
	}
	if nodes[0].d.StoreSize() != 6 {
		t.Fatal("absorb lost elements")
	}
}

func TestTakeLeqBoundary(t *testing.T) {
	ov, eng, nodes := newDHTNet(2, 23)
	src := ov.Anchor
	for i := 1; i <= 5; i++ {
		nodes[src].d.Put(eng.Context(src), ov.Info(src), uint64(i), prio.Element{ID: prio.ElemID(i), Prio: prio.Priority(i * 10)}, nil)
	}
	eng.RunQuiescent(func() bool { return true }, maxRounds(2))
	bound := prio.Key{Prio: 30, ID: prio.ElemID(3)} // inclusive of element 3
	var taken []prio.Element
	for _, nd := range nodes {
		taken = append(taken, nd.d.TakeLeq(bound)...)
	}
	if len(taken) != 3 {
		t.Fatalf("took %d, want 3", len(taken))
	}
	remaining := 0
	for _, nd := range nodes {
		remaining += nd.d.StoreSize()
	}
	if remaining != 2 {
		t.Fatalf("remaining %d", remaining)
	}
}
