package dht

import (
	"slices"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// dhtNode is a minimal protocol node hosting only a DHT shard. It keeps
// the replies to its requests by request id, in arrival order in got.
type dhtNode struct {
	ov      *ldb.Overlay
	d       *DHT
	replies map[uint64]*ReplyMsg
	got     []*ReplyMsg
}

// answered reports whether the reply to request req has arrived.
func (n *dhtNode) answered(req uint64) bool { return n.replies[req] != nil }

func (n *dhtNode) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	switch m := msg.(type) {
	case *ldb.RouteMsg:
		if ldb.Forward(ctx, n.ov, n.ov.Info(ctx.ID()), m) {
			if !n.d.HandleRouted(ctx, m.Payload) {
				panic("unexpected routed payload")
			}
		}
	case *ReplyMsg:
		if n.replies[m.ReqID] != nil {
			panic("second reply to one request")
		}
		n.replies[m.ReqID] = m
		n.got = append(n.got, m)
	default:
		panic("unexpected message")
	}
}

func (n *dhtNode) Activate(*sim.Context) {}

func newDHTNet(n int, seed uint64) (*ldb.Overlay, *sim.SyncEngine, []*dhtNode) {
	ov := ldb.New(n, hashutil.New(seed))
	nodes := make([]*dhtNode, ov.NumVirtual())
	handlers := make([]sim.Handler, ov.NumVirtual())
	for i := range handlers {
		nodes[i] = &dhtNode{ov: ov, d: New(ov), replies: map[uint64]*ReplyMsg{}}
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
	put := nodes[src].d.Put(eng.Context(src), ov.Info(src), 12345, e, true)
	if !eng.RunUntil(func() bool { return nodes[src].answered(put) }, maxRounds(16)) {
		t.Fatal("put never acknowledged")
	}
	if r := nodes[src].replies[put]; !r.Ack || r.Found {
		t.Fatalf("put answered %+v, want an ack", r)
	}
	getter := sim.NodeID(5)
	get := nodes[getter].d.Get(eng.Context(getter), ov.Info(getter), 12345)
	if !eng.RunUntil(func() bool { return nodes[getter].answered(get) }, maxRounds(16)) {
		t.Fatal("get never answered")
	}
	if r := nodes[getter].replies[get]; !r.Found || r.Elem != e {
		t.Fatalf("got %+v want %v", r, e)
	}
}

func TestGetBeforePutWaits(t *testing.T) {
	// §3.2.4: a Get arriving before its Put waits at the responsible node.
	ov, eng, nodes := newDHTNet(8, 2)
	key := uint64(999)
	getter := sim.NodeID(1)
	get := nodes[getter].d.Get(eng.Context(getter), ov.Info(getter), key)
	// Let the Get arrive and park.
	for i := 0; i < maxRounds(8); i++ {
		eng.Step()
	}
	if nodes[getter].answered(get) {
		t.Fatal("get answered before any put")
	}
	e := prio.Element{ID: 1, Prio: 3}
	putter := sim.NodeID(4)
	if req := nodes[putter].d.Put(eng.Context(putter), ov.Info(putter), key, e, false); req != 0 {
		t.Fatalf("a Put without ack returned request id %d", req)
	}
	if !eng.RunUntil(func() bool { return nodes[getter].answered(get) }, maxRounds(8)) {
		t.Fatal("parked get never matched")
	}
	if got := nodes[getter].replies[get].Elem; got != e {
		t.Fatalf("got %v want %v", got, e)
	}
}

func TestGetRemovesElement(t *testing.T) {
	ov, eng, nodes := newDHTNet(8, 3)
	key := uint64(7)
	src := sim.NodeID(0)
	nodes[src].d.Put(eng.Context(src), ov.Info(src), key, prio.Element{ID: 1, Prio: 1}, false)
	nodes[src].d.Get(eng.Context(src), ov.Info(src), key)
	eng.RunUntil(func() bool { return len(nodes[src].got) == 1 }, maxRounds(8))
	// Second get must park (element removed).
	nodes[src].d.Get(eng.Context(src), ov.Info(src), key)
	for i := 0; i < maxRounds(8); i++ {
		eng.Step()
	}
	if len(nodes[src].got) != 1 {
		t.Fatal("second get should wait: element was removed by the first")
	}
}

func TestSameKeyMultiset(t *testing.T) {
	// Two puts under one key serve two gets (Seap's random keys may
	// collide).
	ov, eng, nodes := newDHTNet(8, 4)
	key := uint64(5)
	src := sim.NodeID(2)
	nodes[src].d.Put(eng.Context(src), ov.Info(src), key, prio.Element{ID: 1, Prio: 1}, false)
	nodes[src].d.Put(eng.Context(src), ov.Info(src), key, prio.Element{ID: 2, Prio: 2}, false)
	for i := 0; i < 2; i++ {
		nodes[src].d.Get(eng.Context(src), ov.Info(src), key)
	}
	if !eng.RunUntil(func() bool { return len(nodes[src].got) == 2 }, maxRounds(8)) {
		t.Fatal("gets unanswered")
	}
	got := map[prio.ElemID]bool{}
	for _, r := range nodes[src].got {
		got[r.Elem.ID] = true
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
		put := nodes[src].d.Put(eng.Context(src), ov.Info(src), 42, prio.Element{ID: 1, Prio: 1}, true)
		if !eng.RunUntil(func() bool { return nodes[src].answered(put) }, maxRounds(n)) {
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
		nodes[src].d.Put(eng.Context(src), ov.Info(src), rnd.Uint64(), prio.Element{ID: prio.ElemID(i + 1), Prio: 1}, false)
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

// TestOutstandingBookkeeping: request ids are distinct per issuing node,
// a Get with nothing stored parks at the key's responsible node, and a
// later Put resolves it with exactly one reply carrying the Get's id.
func TestOutstandingBookkeeping(t *testing.T) {
	ov, eng, nodes := newDHTNet(4, 7)
	src := ov.Anchor
	get := nodes[src].d.Get(eng.Context(src), ov.Info(src), 1)
	if put := nodes[src].d.Put(eng.Context(src), ov.Info(src), 2, prio.Element{ID: 2, Prio: 1}, true); put == get || put == 0 {
		t.Fatalf("Put with ack got request id %d beside the Get's %d", put, get)
	}
	holder := nodes[ov.Responsible(KeyPoint(1))]
	if !eng.RunUntil(func() bool { return holder.d.PendingCount() == 1 }, maxRounds(4)) {
		t.Fatal("the Get never parked at the responsible node")
	}
	nodes[src].d.Put(eng.Context(src), ov.Info(src), 1, prio.Element{ID: 1, Prio: 1}, false)
	if !eng.RunUntil(func() bool { return nodes[src].answered(get) }, maxRounds(4)) {
		t.Fatal("request never resolved")
	}
	eng.RunQuiescent(func() bool { return true }, maxRounds(4))
	if holder.d.PendingCount() != 0 || len(nodes[src].got) != 2 || nodes[src].replies[get].Elem.ID != 1 {
		t.Fatalf("after the Put: %d parked, replies %+v", holder.d.PendingCount(), nodes[src].got)
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
	nodes[src].d.Put(eng.Context(src), ov.Info(src), 3, prio.Element{ID: 9, Prio: 2}, false)
	get := nodes[src].d.Get(eng.Context(src), ov.Info(src), 3)
	done := func() bool { r := nodes[src].replies[get]; return r != nil && r.Found && r.Elem.ID == 9 }
	if !eng.RunUntil(done, maxRounds(1)) {
		t.Fatal("single-node DHT broken")
	}
}

func TestPutAckRoundTrip(t *testing.T) {
	ov, eng, nodes := newDHTNet(8, 20)
	src := sim.NodeID(2)
	var puts []uint64
	for i := 0; i < 5; i++ {
		puts = append(puts, nodes[src].d.Put(eng.Context(src), ov.Info(src), uint64(100+i), prio.Element{ID: prio.ElemID(i + 1), Prio: 1}, true))
	}
	if !eng.RunUntil(func() bool { return len(nodes[src].got) == 5 }, maxRounds(8)) {
		t.Fatalf("acks=%d", len(nodes[src].got))
	}
	for _, put := range puts {
		if r := nodes[src].replies[put]; r == nil || !r.Ack {
			t.Fatalf("put %d: reply %+v, want an ack", put, r)
		}
	}
}

func TestMultiplePendingGetsServedInOrder(t *testing.T) {
	// Two parked gets for one key are served by the next two puts in
	// arrival order.
	ov, eng, nodes := newDHTNet(4, 21)
	key := uint64(77)
	src := ov.Anchor
	var gets []uint64
	for i := 0; i < 2; i++ {
		gets = append(gets, nodes[src].d.Get(eng.Context(src), ov.Info(src), key))
	}
	for i := 0; i < maxRounds(4); i++ {
		eng.Step()
	}
	nodes[src].d.Put(eng.Context(src), ov.Info(src), key, prio.Element{ID: 10, Prio: 1}, false)
	eng.RunUntil(func() bool { return nodes[src].answered(gets[0]) }, maxRounds(4))
	nodes[src].d.Put(eng.Context(src), ov.Info(src), key, prio.Element{ID: 20, Prio: 1}, false)
	if !eng.RunUntil(func() bool { return nodes[src].answered(gets[1]) }, maxRounds(4)) {
		t.Fatalf("served %d of 2", len(nodes[src].got))
	}
	if a, b := nodes[src].replies[gets[0]].Elem.ID, nodes[src].replies[gets[1]].Elem.ID; a != 10 || b != 20 {
		t.Fatalf("service order %d, %d", a, b)
	}
}

func TestDumpAbsorbRoundTrip(t *testing.T) {
	ov, eng, nodes := newDHTNet(4, 22)
	src := ov.Anchor
	for i := 0; i < 6; i++ {
		nodes[src].d.Put(eng.Context(src), ov.Info(src), uint64(i), prio.Element{ID: prio.ElemID(i + 1), Prio: 1}, false)
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
		nodes[src].d.Put(eng.Context(src), ov.Info(src), uint64(i), prio.Element{ID: prio.ElemID(i), Prio: prio.Priority(i * 10)}, false)
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

// TestTakeLeqKeepsKeyOrder: elements that share a key and stay after
// TakeLeq keep their arrival order, whichever of them are taken.
func TestTakeLeqKeepsKeyOrder(t *testing.T) {
	prios := []prio.Priority{30, 10, 40, 20, 50}
	for mask := 0; mask < 1<<len(prios); mask++ {
		d := New(nil)
		var want []prio.Element
		for i, p := range prios {
			e := prio.Element{ID: prio.ElemID(i + 1), Prio: p}
			if mask>>i&1 == 1 {
				e.Prio += 100 // above the bound: stays
				want = append(want, e)
			}
			d.Absorb(7, []prio.Element{e})
		}
		taken := d.TakeLeq(prio.Key{Prio: 100, ID: ^prio.ElemID(0)})
		if len(taken)+len(want) != len(prios) || d.StoreSize() != len(want) {
			t.Fatalf("mask %b: took %d, %d stay, want %d", mask, len(taken), d.StoreSize(), len(want))
		}
		if got := d.Dump()[7]; !slices.Equal(got, want) {
			t.Fatalf("mask %b: key holds %v, want %v", mask, got, want)
		}
	}
}
