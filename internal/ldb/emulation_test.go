package ldb

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/mathx"
	"dpq/internal/sim"
)

// TestDeBruijnEmulationDilation checks Lemma 2.2(v)/A.3: routing on the
// LDB costs only an additive O(log n) over the ideal d-hop de Bruijn
// route, i.e. constant hops per de Bruijn step plus a short final walk.
func TestDeBruijnEmulationDilation(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		ov := New(n, hashutil.New(uint64(n)*101))
		rnd := hashutil.NewRand(uint64(n) * 103)
		ideal := RouteHops(n) // the emulated de Bruijn dimension d
		var worst int
		for trial := 0; trial < 30; trial++ {
			src := sim.NodeID(rnd.Intn(ov.NumVirtual()))
			target := rnd.Float64()
			d := routeOnce(t, ov, src, target, trial)
			if d.path > worst {
				worst = d.path
			}
		}
		// Dilation O(D + log n): allow a generous constant per step.
		bound := 8*ideal + 8*mathx.Log2Ceil(n)
		if worst > bound {
			t.Fatalf("n=%d: worst dilation %d exceeds %d (ideal %d)", n, worst, bound, ideal)
		}
	}
}

// TestVirtualEdgesAreDeBruijnEdges verifies the structural basis of the
// emulation: a middle node's left/right siblings sit exactly at the de
// Bruijn images m/2 and (m+1)/2 of its label — the continuous-discrete
// counterpart of deBruijn.Neighbors.
func TestVirtualEdgesAreDeBruijnEdges(t *testing.T) {
	ov := New(40, hashutil.New(107))
	g := newDeBruijn(10)
	for host := 0; host < 40; host++ {
		m := ov.Info(VID(host, Middle)).Label
		l := ov.Info(VID(host, Left)).Label
		r := ov.Info(VID(host, Right)).Label
		if l != m/2 || r != (m+1)/2 {
			t.Fatalf("host %d: virtual edges are not de Bruijn images", host)
		}
		// The discretized neighbours of the discretized label agree.
		x := g.FromPoint(m)
		nb := g.Neighbors(x)
		if g.FromPoint(l) != nb[0] || g.FromPoint(r) != nb[1] {
			t.Fatalf("host %d: discretization disagrees with the de Bruijn neighbours", host)
		}
	}
}

// TestRoutingAsyncEngine: hop-by-hop routing must also converge under
// adversarial delays and non-FIFO delivery (each message is independent,
// so reordering across messages must not matter).
func TestRoutingAsyncEngine(t *testing.T) {
	ov := New(32, hashutil.New(109))
	delivered := map[int]sim.NodeID{}
	handlers := make([]sim.Handler, ov.NumVirtual())
	for i := range handlers {
		handlers[i] = &asyncRouteNode{ov: ov, delivered: delivered}
	}
	groups, group := ov.Group()
	eng := sim.Build(sim.Spec{Kind: sim.KindAsync, Handlers: handlers, Seed: 111, MaxDelay: 4.0, Groups: groups, Group: group}).(*sim.AsyncEngine)
	rnd := hashutil.NewRand(113)
	targets := map[int]float64{}
	const msgs = 25
	for tag := 0; tag < msgs; tag++ {
		src := sim.NodeID(rnd.Intn(ov.NumVirtual()))
		target := rnd.Float64()
		targets[tag] = target
		m := NewRoute(ov.N, target, &payload{tag: tag})
		if Forward(eng.Context(src), ov, ov.Info(src), m) {
			delivered[tag] = src
		}
	}
	if !eng.RunUntil(func() bool { return len(delivered) == msgs }, 1_000_000) {
		t.Fatalf("only %d/%d messages arrived", len(delivered), msgs)
	}
	for tag, at := range delivered {
		if want := ov.Responsible(targets[tag]); at != want {
			t.Fatalf("message %d delivered at %d, responsible is %d", tag, at, want)
		}
	}
}

type asyncRouteNode struct {
	ov        *Overlay
	delivered map[int]sim.NodeID
}

func (a *asyncRouteNode) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	m := msg.(*RouteMsg)
	if Forward(ctx, a.ov, a.ov.Info(ctx.ID()), m) {
		a.delivered[m.Payload.(*payload).tag] = ctx.ID()
	}
}

func (a *asyncRouteNode) Activate(*sim.Context) {}

// TestResponsibleMatchesRoutingEverywhere: exhaustive agreement between
// the god-view Responsible and hop-by-hop delivery on a small overlay.
func TestResponsibleMatchesRoutingEverywhere(t *testing.T) {
	ov := New(6, hashutil.New(127))
	for i := 0; i <= 100; i++ {
		target := float64(i) / 101.0
		d := routeOnce(t, ov, ov.Anchor, target, i)
		if d.at != ov.Responsible(target) {
			t.Fatalf("target %v: delivered %d, responsible %d", target, d.at, ov.Responsible(target))
		}
	}
}
