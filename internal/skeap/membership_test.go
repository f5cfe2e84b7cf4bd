package skeap

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// membershipRig drives a heap with manual iterations so membership changes
// can be applied at quiescent points.
type membershipRig struct {
	h   *Heap
	eng *sim.SyncEngine
}

func newMembershipRig(n int, seed uint64) *membershipRig {
	h := New(Config{N: n, P: 3, Seed: seed})
	h.SetAutoRepeat(false)
	return &membershipRig{h: h, eng: h.NewSyncEngine()}
}

// drain runs iterations until every op completed and the network idles.
func (r *membershipRig) drain(t *testing.T) {
	t.Helper()
	for iter := 0; iter < 50; iter++ {
		if r.h.Done() && !r.eng.Pending() && !r.h.nodes[r.h.ov.Anchor].inFlight {
			return
		}
		if !r.h.nodes[r.h.ov.Anchor].inFlight {
			r.h.StartIteration(r.eng.Context(r.h.ov.Anchor))
		}
		if !r.eng.RunQuiescent(r.h.Done, maxRounds(r.h.cfg.N)) {
			t.Fatalf("drain stuck: %d/%d done", r.h.trace.DoneCount(), r.h.trace.Len())
		}
	}
	t.Fatal("drain did not converge")
}

func totalStored(h *Heap) int {
	t := 0
	for _, s := range h.StoreSizes() {
		t += s
	}
	return t
}

func TestLeavePreservesData(t *testing.T) {
	r := newMembershipRig(8, 500)
	for i := 0; i < 16; i++ {
		r.h.InjectInsert(i%8, prio.ElemID(i+1), i%3, "")
	}
	r.drain(t)
	if totalStored(r.h) != 16 {
		t.Fatalf("stored %d before leave", totalStored(r.h))
	}

	r.h.RemoveHost(r.eng, 3)
	if totalStored(r.h) != 16 {
		t.Fatalf("leave lost data: %d stored", totalStored(r.h))
	}
	if !r.h.Overlay().IsTree() {
		t.Fatal("tree broken after leave")
	}
	// The departed host's slot must hold nothing.
	if r.h.StoreSizes()[3] != 0 {
		t.Fatal("departed host still stores elements")
	}

	// All 16 elements must still be retrievable, in heap order, from the
	// remaining hosts.
	for i := 0; i < 16; i++ {
		host := i % 8
		if host == 3 {
			host = 4
		}
		r.h.InjectDelete(host)
	}
	r.drain(t)
	if rep := semantics.CheckAll(r.h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics after leave:\n%s", rep.Error())
	}
	for _, op := range r.h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && op.Result.Nil() {
			t.Fatal("element lost across the leave")
		}
	}
}

func TestJoinTakesLoadAndServesOps(t *testing.T) {
	r := newMembershipRig(4, 501)
	for i := 0; i < 40; i++ {
		r.h.InjectInsert(i%4, prio.ElemID(i+1), i%3, "")
	}
	r.drain(t)

	newHost := r.h.AddHost(r.eng, 9999)
	if totalStored(r.h) != 40 {
		t.Fatalf("join lost data: %d stored", totalStored(r.h))
	}
	if !r.h.Overlay().IsTree() {
		t.Fatal("tree broken after join")
	}

	// The newcomer participates: it can issue operations and its virtual
	// nodes hold part of the key space.
	r.h.InjectInsert(newHost, 1000, 0, "from-newcomer")
	r.h.InjectDelete(newHost)
	r.drain(t)
	if rep := semantics.CheckAll(r.h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics after join:\n%s", rep.Error())
	}
}

func TestChurnSequence(t *testing.T) {
	// Interleave joins, leaves and heap operations; semantics must hold
	// throughout and no element may vanish.
	r := newMembershipRig(6, 502)
	rnd := hashutil.NewRand(503)
	id := prio.ElemID(1)
	inject := func(k int) {
		for i := 0; i < k; i++ {
			host := rnd.Intn(len(r.h.nodes) / 3)
			for !r.h.Overlay().ActiveHost(host) {
				host = rnd.Intn(len(r.h.nodes) / 3)
			}
			if rnd.Bool(0.7) {
				r.h.InjectInsert(host, id, rnd.Intn(3), "")
				id++
			} else {
				r.h.InjectDelete(host)
			}
		}
	}

	inject(20)
	r.drain(t)
	r.h.RemoveHost(r.eng, 2)
	inject(15)
	r.drain(t)
	joined := r.h.AddHost(r.eng, 7777)
	inject(15)
	r.h.InjectInsert(joined, 5000, 1, "")
	r.drain(t)
	r.h.RemoveHost(r.eng, 0)
	inject(10)
	r.drain(t)

	if rep := semantics.CheckAll(r.h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics under churn:\n%s", rep.Error())
	}
	// Conservation: stored elements == inserts - successful deletes.
	ins, dels := 0, 0
	for _, op := range r.h.Trace().Ops() {
		switch op.Kind {
		case semantics.Insert:
			ins++
		case semantics.DeleteMin:
			if !op.Result.Nil() {
				dels++
			}
		}
	}
	if totalStored(r.h) != ins-dels {
		t.Fatalf("conservation broken: stored %d, want %d", totalStored(r.h), ins-dels)
	}
}

func TestAnchorHandover(t *testing.T) {
	// Remove hosts until the anchor role is forced to move; the interval
	// state must move with it and the heap keep functioning.
	r := newMembershipRig(8, 504)
	for i := 0; i < 12; i++ {
		r.h.InjectInsert(i%8, prio.ElemID(i+1), i%3, "")
	}
	r.drain(t)

	moved := false
	for len(r.h.Overlay().V) > 0 && !moved {
		anchorHost := int(r.h.Overlay().Anchor) / 3
		if r.h.cfg.N <= 2 {
			break
		}
		before := r.h.Overlay().Anchor
		r.h.RemoveHost(r.eng, anchorHost)
		if r.h.Overlay().Anchor != before {
			moved = true
		}
	}
	if !moved {
		t.Skip("anchor never moved (improbable)")
	}
	// The heap still orders correctly after the hand-over.
	r.h.InjectDelete(1)
	r.drain(t)
	if rep := semantics.CheckAll(r.h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics after anchor hand-over:\n%s", rep.Error())
	}
}

func TestMembershipGuards(t *testing.T) {
	r := newMembershipRig(4, 505)
	r.h.InjectInsert(0, 1, 0, "")
	// Outstanding ops → must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic with outstanding ops")
			}
		}()
		r.h.AddHost(r.eng, 1)
	}()
	r.drain(t)
	// Auto-repeat on → must panic.
	r.h.SetAutoRepeat(true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic with auto-repeat on")
			}
		}()
		r.h.RemoveHost(r.eng, 1)
	}()
}

// activationCounter wraps a node's handler, forwarding its Passive answer,
// and counts the activations the engine makes.
type activationCounter struct {
	*nodeHandler
	acts int
}

func (c *activationCounter) Activate(ctx *sim.Context) {
	c.acts++
	c.nodeHandler.Activate(ctx)
}

// TestAnchorHandoverAutoRepeat moves the anchor role on a quiescent heap —
// the anchor's host leaves, or a host with a smaller label joins — and then
// lets the heap drive itself. The synchronous engine activates only the
// nodes that ask for it, so the new anchor starts iterations only if it,
// and not the old one, is the node woken.
func TestAnchorHandoverAutoRepeat(t *testing.T) {
	for _, join := range []bool{false, true} {
		name := map[bool]string{false: "leave", true: "join"}[join]
		t.Run(name, func(t *testing.T) {
			h := New(Config{N: 8, P: 3, Seed: 506})
			h.SetAutoRepeat(false)
			spec := h.Spec(sim.KindSync)
			counters := make([]*activationCounter, len(spec.Handlers))
			for i, hd := range spec.Handlers {
				counters[i] = &activationCounter{nodeHandler: hd.(*nodeHandler)}
				spec.Handlers[i] = counters[i]
			}
			r := &membershipRig{h: h, eng: sim.Build(spec).(*sim.SyncEngine)}
			for i := 0; i < 12; i++ {
				h.InjectInsert(i%8, prio.ElemID(i+1), i%3, "")
			}
			r.drain(t)
			for i, c := range counters {
				if want := sim.NodeID(i) == h.ov.Anchor; (c.acts > 0) != want {
					t.Fatalf("node %d activated %d times before the hand-over (anchor %d)", i, c.acts, h.ov.Anchor)
				}
				c.acts = 0
			}

			before := h.ov.Anchor
			if join {
				id := uint64(1000)
				for h.hasher.Unit(id)/2 >= h.ov.V[before].Label {
					id++
				}
				h.AddHost(r.eng, id)
			} else {
				h.RemoveHost(r.eng, ldb.HostOf(before))
			}
			if h.ov.Anchor == before {
				t.Fatal("the anchor did not move")
			}

			h.SetAutoRepeat(true)
			for i := 0; i < 24; i++ {
				host := i % (len(h.nodes) / 3)
				if !h.ov.ActiveHost(host) {
					continue
				}
				if i%3 == 0 {
					h.InjectDelete(host)
				} else {
					h.InjectInsert(host, prio.ElemID(100+i), i%3, "")
				}
			}
			if !r.eng.RunUntil(h.Done, maxRounds(h.cfg.N)) {
				t.Fatalf("stuck after the hand-over: %d/%d ops done", h.trace.DoneCount(), h.trace.Len())
			}
			if rep := h.Check(); !rep.Ok() {
				t.Fatalf("semantics after the hand-over:\n%s", rep.Error())
			}
			// Every node of the original set is wrapped; only the new anchor
			// may be among the activated ones (a joining host's nodes are not).
			for i, c := range counters {
				if want := sim.NodeID(i) == h.ov.Anchor; (c.acts > 0) != want {
					t.Fatalf("node %d activated %d times after the hand-over (anchor %d)", i, c.acts, h.ov.Anchor)
				}
			}
		})
	}
}
