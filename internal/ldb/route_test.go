package ldb

import (
	"math"
	"sync"
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

// bitAt returns the i-th most significant bit of target's binary expansion
// (1 ≤ i ≤ 53): the leading bit of fracAt(target, i−1).
func bitAt(target float64, i int) int { return int(2 * fracAt(target, i-1)) }

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

// TestBitAtMatchesFloatDefinition: the integer-image reads equal the
// textbook frac(target·2^i) and ⌊target·2^i⌋ mod 2 at every index the
// 53-bit image holds (scaling by 2^i and taking the fraction are exact).
func TestBitAtMatchesFloatDefinition(t *testing.T) {
	rnd := hashutil.NewRand(53)
	for trial := 0; trial < 100_000; trial++ {
		target := rnd.Float64()
		for i := 1; i <= 53; i++ {
			scaled := target * math.Pow(2, float64(i-1))
			if got, want := fracAt(target, i-1), scaled-math.Floor(scaled); got != want {
				t.Fatalf("frac(%v·2^%d) = %v, want %v", target, i-1, got, want)
			}
			if got, want := bitAt(target, i), int(math.Floor(2*scaled))&1; got != want {
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

type kindPayload struct{ kind string }

func (p *kindPayload) Bits() int    { return 40 }
func (p *kindPayload) Kind() string { return p.kind }

// TestRouteSealMatchesLiteral: the size and kind NewRoute computes once
// are what a literal RouteMsg computes on every call, and stay put while
// the route is forwarded.
func TestRouteSealMatchesLiteral(t *testing.T) {
	ov := New(64, hashutil.New(5))
	for _, p := range []sim.Message{&payload{}, &kindPayload{"put"}, &kindPayload{"get"}, &kindPayload{"sample-root"}, &kindPayload{"copy"}, &kindPayload{"other"}} {
		m, lit := NewRoute(64, 0.3, p), &RouteMsg{Target: 0.3, Payload: p}
		if m.Bits() != lit.Bits() || m.Kind() != lit.Kind() {
			t.Fatalf("%T: sealed %d bits %q, literal %d bits %q", p, m.Bits(), m.Kind(), lit.Bits(), lit.Kind())
		}
		bits, kind := m.Bits(), m.Kind()
		for at := &ov.V[0]; ; {
			next, done := RouteStep(ov, at, m)
			if done {
				break
			}
			at = &ov.V[next]
		}
		if m.Bits() != bits || m.Kind() != kind {
			t.Fatalf("%T: forwarding changed the route to %d bits %q", p, m.Bits(), m.Kind())
		}
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

// runAfter counts the non-middle nodes succ-ward of id, up to the next
// middle node: the run whose MidPred a middle node at id's position hands
// over when it joins or leaves.
func runAfter(ov *Overlay, id sim.NodeID) int64 {
	run := int64(0)
	for cur := ov.V[id].Succ; KindOf(cur) != Middle; cur = ov.V[cur].Succ {
		run++
	}
	return run
}

// TestRunBatchChargesMidPredHandOff: a batch pays one message per node of
// the run a joining or leaving middle node hands its MidPred edge to, on
// top of the splice routes and the six leave notifications.
func TestRunBatchChargesMidPredHandOff(t *testing.T) {
	ov := New(64, hashutil.New(35))
	host := 0
	for runAfter(ov, VID(host, Middle)) == 0 {
		host++
	}
	run := runAfter(ov, VID(host, Middle))
	if res := RunBatch(ov, nil, []int{host}, 8); res.Messages != 6+run {
		t.Fatalf("leave: %d messages, want 6 notifications + a run of %d", res.Messages, run)
	}

	ov = New(64, hashutil.New(36))
	id := uint64(5000)
	for runAfter(ov, ov.Responsible(ov.hasher.Unit(id))) == 0 {
		id++
	}
	run = runAfter(ov, ov.Responsible(ov.hasher.Unit(id)))
	res := RunBatch(ov, []uint64{id}, nil, 9)
	routed := ov.HopStats()["route/other"].Hops
	if res.Messages != routed+run {
		t.Fatalf("join: %d messages, want %d routed + a run of %d", res.Messages, routed, run)
	}
	checkMidPred(t, ov)
}

// referenceStep is the fixed-length walk of the same emulation, with no
// stop rules: it spends all Hops de Bruijn steps (same child rule, same
// MidPred hop between steps), then walks linearly the short way round
// (same final step), and only then asks who owns the target. Kept as the
// model the early-stopping walk is compared against.
func referenceStep(ov *Overlay, self *VInfo, m *RouteMsg) (next sim.NodeID, deliver bool) {
	if m.Hops > 0 {
		if self.Kind == Middle {
			return deBruijnHop(ov, self, m), false
		}
		return self.MidPred, false
	}
	if owns(self, m.Target) {
		return sim.None, true
	}
	return finalStep(self, m), false
}

// routeHopLimit is the longest route allowed: eight hops per ⌈log₂3n⌉,
// for every origin and target, near-dyadic ones included. It is Lemma
// A.2's bound w.h.p. over the labels; FuzzRouteStep asserts it on the
// overlays it builds too.
func routeHopLimit(n int) int { return 8 * mathx.Log2Ceil(3*n) }

// walk applies step hop by hop from src until it delivers and returns the
// visited virtual nodes, src first and the delivering node last. No hop may
// name the node it leaves: a message sent to itself would cost a round and
// a message for nothing. The hop limit only guards termination, far above
// routeHopLimit.
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
		if cur := path[len(path)-1]; next == cur {
			t.Fatalf("n=%d: route %d → %v: node %d forwards to itself", ov.N, src, target, cur)
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
// two further hops (virtual edge, then predecessor); it is never more than
// one hop longer than the reference; and the reference's final linear walk
// goes the short way round, never passing a node farther from the target
// than the one it began at (the owner aside, which may sit just past it).
// Unlike a hop bound, these hold on every overlay, however unevenly its
// labels fall.
func checkRoute(t testing.TB, ov *Overlay, src sim.NodeID, target float64) (hops, refHops int) {
	t.Helper()
	got := walk(t, ov, src, target, RouteStep)
	start := -1.0 // distance to the target where the final walk began
	ref := walk(t, ov, src, target, func(ov *Overlay, self *VInfo, m *RouteMsg) (sim.NodeID, bool) {
		if m.Hops == 0 && !owns(self, target) {
			d := math.Abs(self.Label - target)
			d = min(d, 1-d)
			if start < 0 {
				start = d
			} else if d > start {
				t.Fatalf("n=%d: route %d → %v: the final walk reaches label %v, farther than where it began", ov.N, src, target, self.Label)
			}
		}
		return referenceStep(ov, self, m)
	})
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

// checkMidPred asserts that every active node's MidPred is what a scan
// from scratch finds: the first middle node pred-ward of it, itself only
// after a full turn of the cycle.
func checkMidPred(t testing.TB, ov *Overlay) {
	t.Helper()
	for _, id := range activeNodes(ov) {
		want := ov.V[id].Pred
		for KindOf(want) != Middle {
			want = ov.V[want].Pred
		}
		if got := ov.V[id].MidPred; got != want {
			t.Fatalf("n=%d: node %d has MidPred %d, the nearest middle node pred-ward is %d", ov.N, id, got, want)
		}
	}
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
				checkMidPred(t, ov)
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

// TestRouteHopBudget pins the mean and the longest hop count per overlay
// size: the walk is deterministic per seed, so a routing regression fails
// here on any hardware. The reference column documents what the
// fixed-length walk of the same emulation costs; the claim is the small-n
// constant and a tail within a small factor of the mean, the large-n slope
// is Lemma A.2's. Budgets are 1.15× the measured mean and longest route,
// rounded down.
func TestRouteHopBudget(t *testing.T) {
	for _, c := range []struct {
		n         int
		budget    float64
		maxBudget int
	}{{4, 2.3, 5}, {8, 4.7, 17}, {64, 8.4, 23}, {1024, 13.7, 31}, {4096, 16.2, 29}} {
		ov := New(c.n, hashutil.New(uint64(c.n)))
		rnd := hashutil.NewRand(uint64(c.n) + 1)
		const pairs = 2000
		var hops, refHops, longest int
		for i := 0; i < pairs; i++ {
			h, r := checkRoute(t, ov, sim.NodeID(rnd.Intn(ov.NumVirtual())), rnd.Float64())
			hops += h
			refHops += r
			longest = max(longest, h)
		}
		mean, refMean := float64(hops)/pairs, float64(refHops)/pairs
		t.Logf("n=%d: mean hops %.1f, max %d (fixed-length walk %.1f)", c.n, mean, longest, refMean)
		if mean > c.budget {
			t.Errorf("n=%d: mean %.1f hops exceeds the budget of %.1f", c.n, mean, c.budget)
		}
		if longest > c.maxBudget || longest > routeHopLimit(c.n) {
			t.Errorf("n=%d: a route takes %d hops, budget %d (limit %d)", c.n, longest, c.maxBudget, routeHopLimit(c.n))
		}
		if mean > refMean {
			t.Errorf("n=%d: mean %.1f hops, above the fixed-length walk's %.1f", c.n, mean, refMean)
		}
	}
}

// TestRouteNearDyadicTargets routes from every origin to the points just
// either side of every k/2^j, j ≤ 6 (all of them are multiples of 2^-6).
// Such a target's ideal positions frac(Target·2^i) sit next to label 0 for
// every i ≥ j, so the pred-ward walks to a middle node keep crossing 0: a
// de Bruijn step that reads the target's bit instead of choosing the
// cyclically closer child sends the route half a cycle away.
func TestRouteNearDyadicTargets(t *testing.T) {
	for _, n := range []int{64, 1024, 4096} {
		ov := New(n, hashutil.New(uint64(n)*17))
		longest, limit := 0, routeHopLimit(n)
		for k := 0; k < 1<<6; k++ {
			for _, eps := range []float64{-1e-9, 1e-9} {
				target := math.Mod(float64(k)/(1<<6)+eps+1, 1)
				for src := range ov.V {
					path := walk(t, ov, sim.NodeID(src), target, RouteStep)
					if at, want := path[len(path)-1], ov.Responsible(target); at != want {
						t.Fatalf("n=%d: route %d → %v delivered at %d, responsible is %d", n, src, target, at, want)
					}
					longest = max(longest, len(path)-1)
				}
			}
		}
		t.Logf("n=%d: longest route to a near-dyadic target %d hops (limit %d)", n, longest, limit)
		if longest > limit {
			t.Errorf("n=%d: a route to a near-dyadic target takes %d hops, limit %d", n, longest, limit)
		}
	}
}

// TestHopStatsConcurrent: HopStats is written by netrun's run goroutine and
// read by dpqd's main goroutine. Here several goroutines deliver at once,
// and HopStats must still count every route and hold the exact longest
// path. Each message is delivered where it is created, with Path preset.
func TestHopStatsConcurrent(t *testing.T) {
	ov := New(8, hashutil.New(5))
	owner := ov.Info(ov.Responsible(0.5))
	const workers, routes = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < routes; i++ {
				// 7 is coprime to routes: every worker delivers each path
				// length 0 … routes−1 once, in its own order.
				if !Forward(nil, ov, owner, &RouteMsg{Target: 0.5, Path: (7*i + w) % routes}) {
					t.Error("the owner did not deliver")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := HopStats{Count: workers * routes, Hops: workers * routes * (routes - 1) / 2, Max: routes - 1}
	if st := ov.HopStats()["route/other"]; st.Count != want.Count || st.Hops != want.Hops || st.Max != want.Max {
		t.Fatalf("HopStats = %+v, want count %d, hops %d, max %d", st, want.Count, want.Hops, want.Max)
	}
	if mean, longest := ov.HopSummary(); mean != float64(routes-1)/2 || longest != want.Max {
		t.Fatalf("HopSummary = %v, %d; want %v, %d", mean, longest, float64(routes-1)/2, want.Max)
	}
}

// FuzzRouteStep drives the routing contract over arbitrary origins, target
// bit patterns and membership histories (each edit byte adds a host or
// removes the one it names). After every edit each MidPred must match a
// scan from scratch; the route must meet checkRoute's properties and
// routeHopLimit. The last seed is 35 hosts whose middle nodes leave the arc
// (0.669, 0.835) empty: each step toward 0 crosses to the right node above
// that arc, whose MidPred is the middle node it left, so deBruijnHop takes
// the next step in place. The route to 0.5 takes 20 hops; a pred-ward walk
// across the arc per step took 61, past the limit of 56.
func FuzzRouteStep(f *testing.F) {
	f.Add(uint8(4), uint16(0), uint64(0), []byte{})
	f.Add(uint8(1), uint16(2), ^uint64(0), []byte{1, 0, 3})
	f.Add(uint8(12), uint16(7), uint64(1)<<63, []byte{2, 2, 5, 1, 1, 8})
	f.Add(uint8('^'), uint16(32), uint64(1)<<63, []byte("11111X"))
	f.Fuzz(func(t *testing.T, n uint8, origin uint16, targetBits uint64, edits []byte) {
		ov := New(int(n%32)+1, hashutil.New(uint64(n)))
		checkMidPred(t, ov)
		if len(edits) > 16 {
			edits = edits[:16] // every edit rebuilds the overlay
		}
		for i, e := range edits {
			if slot := int(e>>1) % len(ov.active); e&1 == 0 && ov.N > 1 && ov.ActiveHost(slot) {
				ov.RemoveHost(slot)
			} else {
				ov.AddHost(uint64(1000 + i))
			}
			checkMidPred(t, ov)
		}
		nodes := activeNodes(ov)
		target := float64(targetBits>>11) / (1 << 53)
		src := nodes[int(origin)%len(nodes)]
		if hops, _ := checkRoute(t, ov, src, target); hops > routeHopLimit(ov.N) {
			t.Fatalf("n=%d: route %d → %v takes %d hops, limit %d", ov.N, src, target, hops, routeHopLimit(ov.N))
		}
	})
}

// sink accepts and ignores every message.
type sink struct{}

func (sink) HandleMessage(*sim.Context, sim.NodeID, sim.Message) {}
func (sink) Activate(*sim.Context)                               {}

// TestGroupAfterLeave: host ids run to the number of slots, not to the
// number of active hosts, so after a middle slot leaves an engine built on
// Group must still account deliveries to the highest slots. Under go test
// an out-of-range congestion group panics; a binary counts it as Dropped.
func TestGroupAfterLeave(t *testing.T) {
	ov := New(8, hashutil.New(37))
	ov.RemoveHost(3)
	// RunBatch builds its engine on Group; a leaving host notifies its
	// neighbours, so pick one with a neighbour in the top slot.
	leaver := -1
	for h := 0; h < 7 && leaver < 0; h++ {
		if !ov.ActiveHost(h) {
			continue
		}
		for _, k := range []Kind{Left, Middle, Right} {
			if v := ov.Info(VID(h, k)); HostOf(v.Pred) == 7 || HostOf(v.Succ) == 7 {
				leaver = h
			}
		}
	}
	if leaver < 0 {
		t.Fatal("no host neighbours the top slot")
	}
	RunBatch(ov, nil, []int{leaver}, 10)
	if ov.N != 6 || !ov.IsTree() {
		t.Fatal("leave batch after a leave failed")
	}

	handlers := make([]sim.Handler, ov.NumVirtual())
	for i := range handlers {
		handlers[i] = sink{}
	}
	groups, group := ov.Group()
	eng := sim.Build(sim.Spec{Handlers: handlers, Seed: 1, Groups: groups, Group: group}).(*sim.SyncEngine)
	eng.SetStrictAccounting(false)
	top := VID(6, Middle)
	eng.Context(VID(0, Middle)).Send(top, &payload{})
	eng.Step()
	if m := eng.Metrics(); m.Dropped != 0 || m.Messages != 1 {
		t.Fatalf("delivery to slot 6 after a leave: %+v", m)
	}
}
