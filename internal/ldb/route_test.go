package ldb

import (
	"math"
	"testing"
	"testing/quick"

	"dpq/internal/hashutil"
	"dpq/internal/mathx"
	"dpq/internal/sim"
)

type payload struct{ tag int }

func (p *payload) Bits() int { return 32 }

// routeNode relays RouteMsgs and records deliveries.
type routeNode struct {
	ov        *Overlay
	delivered *[]delivery
}

type delivery struct {
	at   sim.NodeID
	tag  int
	path int
}

func (r *routeNode) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	m := msg.(*RouteMsg)
	if Forward(ctx, r.ov, r.ov.Info(ctx.ID()), m) {
		*r.delivered = append(*r.delivered, delivery{at: ctx.ID(), tag: m.Payload.(*payload).tag, path: m.Path})
	}
}

func (r *routeNode) Activate(*sim.Context) {}

func routeOnce(t *testing.T, ov *Overlay, src sim.NodeID, target float64, tag int) delivery {
	t.Helper()
	var deliveries []delivery
	handlers := make([]sim.Handler, ov.NumVirtual())
	for i := range handlers {
		handlers[i] = &routeNode{ov: ov, delivered: &deliveries}
	}
	groups, group := ov.Group()
	eng := sim.Build(sim.Spec{Handlers: handlers, Seed: 1, Groups: groups, Group: group}).(*sim.SyncEngine)
	m := NewRoute(ov.N, target, &payload{tag: tag})
	if Forward(eng.Context(src), ov, ov.Info(src), m) {
		deliveries = append(deliveries, delivery{at: src, tag: tag, path: m.Path})
	}
	ok := eng.RunUntil(func() bool { return len(deliveries) == 1 }, 200*(mathx.Log2Ceil(ov.N)+4))
	if !ok {
		t.Fatalf("routing to %v from %d never delivered", target, src)
	}
	return deliveries[0]
}

func TestRoutingReachesResponsibleNode(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 33, 128} {
		ov := New(n, hashutil.New(uint64(n)))
		rnd := hashutil.NewRand(uint64(n) * 7)
		for trial := 0; trial < 10; trial++ {
			src := sim.NodeID(rnd.Intn(ov.NumVirtual()))
			target := rnd.Float64()
			d := routeOnce(t, ov, src, target, trial)
			if d.at != ov.Responsible(target) {
				t.Fatalf("n=%d: delivered at %d, responsible is %d (target %v)",
					n, d.at, ov.Responsible(target), target)
			}
		}
	}
}

func TestRoutingHopCountLogarithmic(t *testing.T) {
	// Lemma A.2: O(log n) hops w.h.p. Verify with a generous constant.
	for _, n := range []int{8, 64, 512} {
		ov := New(n, hashutil.New(uint64(n)*3))
		rnd := hashutil.NewRand(99)
		bound := 40 * (mathx.Log2Ceil(n) + 2)
		for trial := 0; trial < 20; trial++ {
			src := sim.NodeID(rnd.Intn(ov.NumVirtual()))
			d := routeOnce(t, ov, src, rnd.Float64(), trial)
			if d.path > bound {
				t.Fatalf("n=%d: %d hops exceed bound %d", n, d.path, bound)
			}
		}
	}
}

func TestOwnsPartitionsTheCircle(t *testing.T) {
	ov := New(13, hashutil.New(21))
	f := func(raw uint32) bool {
		p := float64(raw) / float64(1<<32)
		owners := 0
		for i := range ov.V {
			if owns(ov.Info(sim.NodeID(i)), p) {
				owners++
			}
		}
		return owners == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitAt(t *testing.T) {
	// 0.1011_2 = 0.6875
	p := 0.6875
	want := []int{1, 0, 1, 1, 0}
	for i, w := range want {
		if got := bitAt(p, i+1); got != w {
			t.Fatalf("bit %d of %v = %d, want %d", i+1, p, got, w)
		}
	}
}

// TestBitAtMatchesFloatDefinition: the integer-image read equals the
// textbook ⌊target·2^i⌋ mod 2 for every step index a 2^20-process overlay
// can ask for.
func TestBitAtMatchesFloatDefinition(t *testing.T) {
	rnd := hashutil.NewRand(53)
	for trial := 0; trial < 100_000; trial++ {
		target := rnd.Float64()
		for i := 1; i <= RouteHops(1<<20); i++ {
			want := int(math.Floor(target*math.Pow(2, float64(i)))) & 1
			if got := bitAt(target, i); got != want {
				t.Fatalf("bit %d of %v = %d, want %d", i, target, got, want)
			}
		}
	}
}

func TestRouteMsgBitsIncludePayload(t *testing.T) {
	m := NewRoute(8, 0.5, &payload{})
	if m.Bits() <= (&payload{}).Bits() {
		t.Fatal("routing header not accounted")
	}
}

func TestRunBatchJoinLeave(t *testing.T) {
	ov := New(32, hashutil.New(31))
	res := RunBatch(ov, []uint64{1001, 1002, 1003}, []int{4, 9}, 5)
	if ov.N != 33 {
		t.Fatalf("membership after batch: %d", ov.N)
	}
	if !ov.IsTree() {
		t.Fatal("restoration must leave a valid tree")
	}
	if res.Rounds <= 0 || res.Messages <= 0 {
		t.Fatalf("suspicious cost: %+v", res)
	}
	bound := 100 * (mathx.Log2Ceil(32) + 2)
	if res.Rounds > bound {
		t.Fatalf("restoration took %d rounds (> %d)", res.Rounds, bound)
	}
}

func TestRunBatchJoinOnly(t *testing.T) {
	ov := New(8, hashutil.New(33))
	RunBatch(ov, []uint64{501}, nil, 6)
	if ov.N != 9 || !ov.IsTree() {
		t.Fatal("join-only batch failed")
	}
}

func TestRunBatchLeaveOnly(t *testing.T) {
	ov := New(8, hashutil.New(34))
	RunBatch(ov, nil, []int{2}, 7)
	if ov.N != 7 || !ov.IsTree() {
		t.Fatal("leave-only batch failed")
	}
}

// referenceStep is the fixed-length stepper RouteStep replaced: it spends
// all Hops de Bruijn steps, then walks linearly, and only then asks who
// owns the target. Kept as the model the early-stopping walk is compared
// against.
func referenceStep(_ *Overlay, self *VInfo, m *RouteMsg) (next sim.NodeID, deliver bool) {
	if m.Hops > 0 {
		if self.Kind == Middle {
			b := bitAt(m.Target, m.Hops)
			m.Hops--
			if b == 0 {
				return VID(self.Host, Left), false
			}
			return VID(self.Host, Right), false
		}
		return self.Pred, false
	}
	if owns(self, m.Target) {
		return sim.None, true
	}
	if m.Target > self.Label {
		return self.Succ, false
	}
	return self.Pred, false
}

// walk applies step hop by hop from src until it delivers and returns the
// visited virtual nodes, src first and the delivering node last. The hop
// limit only guards termination: a pred-ward walk that wraps through label
// 0 on its last de Bruijn steps sends either stepper most of the way round
// the cycle (targets within O(log n / n) of a dyadic point; rare, and the
// reason Lemma A.2 is "w.h.p.").
func walk(t testing.TB, ov *Overlay, src sim.NodeID, target float64, step func(*Overlay, *VInfo, *RouteMsg) (sim.NodeID, bool)) []sim.NodeID {
	t.Helper()
	m := NewRoute(ov.N, target, &payload{})
	path := []sim.NodeID{src}
	for limit := 2*ov.NumVirtual() + 64*(mathx.Log2Ceil(ov.N)+4); ; limit-- {
		next, deliver := step(ov, ov.Info(path[len(path)-1]), m)
		if deliver {
			return path
		}
		if limit == 0 {
			t.Fatalf("n=%d: route %d → %v still undelivered after %d hops", ov.N, src, target, len(path)-1)
		}
		if !ov.ActiveHost(HostOf(next)) {
			t.Fatalf("n=%d: route %d → %v forwarded to departed node %d", ov.N, src, target, next)
		}
		path = append(path, next)
	}
}

// checkRoute asserts the routing contract for one origin/target pair and
// returns the hop counts of RouteStep and of the reference stepper:
// delivery happens at the responsible node; the walk follows the reference
// walk hop for hop until a stop rule names the owner, which costs at most
// two further hops (virtual edge, then predecessor); and it is never more
// than one hop longer than the reference.
func checkRoute(t testing.TB, ov *Overlay, src sim.NodeID, target float64) (hops, refHops int) {
	t.Helper()
	got := walk(t, ov, src, target, RouteStep)
	ref := walk(t, ov, src, target, referenceStep)
	if at, want := got[len(got)-1], ov.Responsible(target); at != want {
		t.Fatalf("n=%d: route %d → %v delivered at %d, responsible is %d", ov.N, src, target, at, want)
	}
	common := 0
	for common < len(got) && common < len(ref) && got[common] == ref[common] {
		common++
	}
	if tail := len(got) - common; tail > 2 {
		t.Fatalf("n=%d: route %d → %v leaves the reference walk %d hops before delivery\n got %v\n ref %v", ov.N, src, target, tail, got, ref)
	}
	if len(got) > len(ref)+1 {
		t.Fatalf("n=%d: route %d → %v takes %d hops, reference %d", ov.N, src, target, len(got)-1, len(ref)-1)
	}
	return len(got) - 1, len(ref) - 1
}

// activeNodes lists the virtual nodes of the hosts currently in the network.
func activeNodes(ov *Overlay) []sim.NodeID {
	var ids []sim.NodeID
	for i := range ov.V {
		if ov.ActiveHost(ov.V[i].Host) {
			ids = append(ids, ov.V[i].ID)
		}
	}
	return ids
}

func TestRouteStepProperties(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 64, 1024} {
		for seed := uint64(1); seed <= 5; seed++ {
			ov := New(n, hashutil.New(seed*1000+uint64(n)))
			rnd := hashutil.NewRand(seed)
			check := func() {
				for _, src := range activeNodes(ov) {
					for trial := 0; trial < 2; trial++ {
						checkRoute(t, ov, src, rnd.Float64())
					}
					// The node's own label and its successor's are the arc
					// boundaries of every stop rule.
					checkRoute(t, ov, src, ov.Info(src).Label)
					checkRoute(t, ov, src, ov.Info(src).SuccLabel)
				}
			}
			check()
			ov.AddHost(uint64(n) + 1000 + seed)
			check()
			ov.RemoveHost(rnd.Intn(n))
			check()
		}
	}
}

// TestRouteHopBudget pins the mean hop count per overlay size: the walk is
// deterministic per seed, so a routing regression fails here on any
// hardware. The reference column documents what the fixed-length walk
// cost; the claim is the small-n constant, the large-n slope is Lemma A.2's.
func TestRouteHopBudget(t *testing.T) {
	for _, c := range []struct {
		n      int
		budget float64
	}{{4, 4}, {8, 8}, {64, 32}, {4096, 66}} {
		ov := New(c.n, hashutil.New(uint64(c.n)))
		rnd := hashutil.NewRand(uint64(c.n) + 1)
		const pairs = 2000
		var hops, refHops int
		for i := 0; i < pairs; i++ {
			h, r := checkRoute(t, ov, sim.NodeID(rnd.Intn(ov.NumVirtual())), rnd.Float64())
			hops += h
			refHops += r
		}
		mean, refMean := float64(hops)/pairs, float64(refHops)/pairs
		t.Logf("n=%d: mean hops %.1f (fixed-length walk %.1f)", c.n, mean, refMean)
		if mean > c.budget {
			t.Errorf("n=%d: mean %.1f hops exceeds the budget of %.0f", c.n, mean, c.budget)
		}
		if mean > refMean {
			t.Errorf("n=%d: mean %.1f hops, above the fixed-length walk's %.1f", c.n, mean, refMean)
		}
	}
}

// FuzzRouteStep drives the routing contract over arbitrary origins, target
// bit patterns and membership histories (each edit byte adds a host or
// removes the one it names).
func FuzzRouteStep(f *testing.F) {
	f.Add(uint8(4), uint16(0), uint64(0), []byte{})
	f.Add(uint8(1), uint16(2), ^uint64(0), []byte{1, 0, 3})
	f.Add(uint8(12), uint16(7), uint64(1)<<63, []byte{2, 2, 5, 1, 1, 8})
	f.Fuzz(func(t *testing.T, n uint8, origin uint16, targetBits uint64, edits []byte) {
		ov := New(int(n%32)+1, hashutil.New(uint64(n)))
		if len(edits) > 16 {
			edits = edits[:16] // every edit rebuilds the overlay
		}
		for i, e := range edits {
			if slot := int(e>>1) % len(ov.active); e&1 == 0 && ov.N > 1 && ov.ActiveHost(slot) {
				ov.RemoveHost(slot)
			} else {
				ov.AddHost(uint64(1000 + i))
			}
		}
		nodes := activeNodes(ov)
		target := float64(targetBits>>11) / (1 << 53)
		checkRoute(t, ov, nodes[int(origin)%len(nodes)], target)
	})
}
