package seap

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

type memRig struct {
	h   *Heap
	eng *sim.SyncEngine
}

func newMemRig(n int, seed uint64) *memRig {
	h := New(Config{N: n, PrioBound: 1 << 16, Seed: seed})
	h.SetAutoRepeat(false)
	return &memRig{h: h, eng: h.NewSyncEngine()}
}

func (r *memRig) drain(t *testing.T) {
	t.Helper()
	for iter := 0; iter < 60; iter++ {
		if r.h.Done() && !r.eng.Pending() && !r.h.inFlight {
			return
		}
		if !r.h.inFlight {
			r.h.StartCycle(r.eng.Context(r.h.ov.Anchor))
		}
		if !r.eng.RunQuiescent(r.h.Done, maxRounds(r.h.cfg.N)) {
			t.Fatalf("drain stuck: %d/%d done", r.h.trace.DoneCount(), r.h.trace.Len())
		}
	}
	t.Fatal("drain did not converge")
}

func seapStored(h *Heap) int {
	t := 0
	for _, s := range h.StoreSizes() {
		t += s
	}
	return t
}

func TestSeapLeavePreservesData(t *testing.T) {
	r := newMemRig(6, 700)
	rnd := hashutil.NewRand(701)
	for i := 0; i < 24; i++ {
		r.h.InjectInsert(i%6, prio.ElemID(i+1), rnd.Uint64n(1<<16)+1, "")
	}
	r.drain(t)
	if seapStored(r.h) != 24 {
		t.Fatalf("stored %d before leave", seapStored(r.h))
	}
	r.h.RemoveHost(r.eng, 2)
	if seapStored(r.h) != 24 {
		t.Fatalf("leave lost data: %d stored", seapStored(r.h))
	}
	if r.h.StoreSizes()[2] != 0 {
		t.Fatal("departed host still stores elements")
	}
	// All elements retrievable via the surviving hosts.
	for i := 0; i < 24; i++ {
		host := i % 6
		if host == 2 {
			host = 3
		}
		r.h.InjectDelete(host)
	}
	r.drain(t)
	if rep := semantics.CheckSerializable(r.h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics after leave:\n%s", rep.Error())
	}
	for _, op := range r.h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && op.Result.Nil() {
			t.Fatal("element lost across the leave")
		}
	}
}

func TestSeapJoinParticipates(t *testing.T) {
	r := newMemRig(4, 710)
	rnd := hashutil.NewRand(711)
	for i := 0; i < 20; i++ {
		r.h.InjectInsert(i%4, prio.ElemID(i+1), rnd.Uint64n(1<<16)+1, "")
	}
	r.drain(t)
	newHost := r.h.AddHost(r.eng, 4242)
	if seapStored(r.h) != 20 {
		t.Fatalf("join lost data: %d", seapStored(r.h))
	}
	// The newcomer issues ops, including a delete served by KSelect over
	// the regrown node set.
	r.h.InjectInsert(newHost, 999, 1, "newcomer-min")
	r.h.InjectDelete(newHost)
	r.drain(t)
	var res prio.Element
	for _, op := range r.h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin {
			res = op.Result
		}
	}
	if res.ID != 999 {
		t.Fatalf("delete returned %v, want the priority-1 newcomer element", res)
	}
	if rep := semantics.CheckSerializable(r.h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics after join:\n%s", rep.Error())
	}
}

func TestSeapChurn(t *testing.T) {
	r := newMemRig(5, 720)
	rnd := hashutil.NewRand(721)
	id := prio.ElemID(1)
	inject := func(k int) {
		for i := 0; i < k; i++ {
			host := rnd.Intn(len(r.h.nodes) / 3)
			for !r.h.ov.ActiveHost(host) {
				host = rnd.Intn(len(r.h.nodes) / 3)
			}
			if rnd.Bool(0.7) {
				r.h.InjectInsert(host, id, rnd.Uint64n(1<<16)+1, "")
				id++
			} else {
				r.h.InjectDelete(host)
			}
		}
	}
	inject(15)
	r.drain(t)
	r.h.RemoveHost(r.eng, 1)
	inject(12)
	r.drain(t)
	r.h.AddHost(r.eng, 8888)
	inject(12)
	r.drain(t)
	if rep := semantics.CheckSerializable(r.h.Trace(), semantics.ByID); !rep.Ok() {
		t.Fatalf("semantics under churn:\n%s", rep.Error())
	}
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
	if seapStored(r.h) != ins-dels {
		t.Fatalf("conservation broken: stored %d, want %d", seapStored(r.h), ins-dels)
	}
	if r.h.Size() != int64(ins-dels) {
		t.Fatalf("anchor m=%d, want %d", r.h.Size(), ins-dels)
	}
}

func TestSeapMembershipGuards(t *testing.T) {
	r := newMemRig(3, 730)
	r.h.InjectInsert(0, 1, 1, "")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic with outstanding ops")
			}
		}()
		r.h.AddHost(r.eng, 1)
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

// TestSeapAnchorHandoverAutoRepeat moves the anchor role on a quiescent
// heap — the anchor's host leaves, or a host with a smaller label joins —
// and then lets the heap drive itself. The synchronous engine activates
// only the anchor, so the new anchor starts cycles only if the hand-over
// refreshed the engine's active set.
func TestSeapAnchorHandoverAutoRepeat(t *testing.T) {
	for _, join := range []bool{false, true} {
		name := map[bool]string{false: "leave", true: "join"}[join]
		t.Run(name, func(t *testing.T) {
			h := New(Config{N: 6, PrioBound: 1 << 16, Seed: 730})
			h.SetAutoRepeat(false)
			spec := h.Spec(sim.KindSync)
			counters := make([]*activationCounter, len(spec.Handlers))
			for i, hd := range spec.Handlers {
				counters[i] = &activationCounter{nodeHandler: hd.(*nodeHandler)}
				spec.Handlers[i] = counters[i]
			}
			r := &memRig{h: h, eng: sim.Build(spec).(*sim.SyncEngine)}
			for i := 0; i < 12; i++ {
				h.InjectInsert(i%6, prio.ElemID(i+1), uint64(i*37%1000)+1, "")
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
			for i := 0; i < 18; i++ {
				host := i % (len(h.nodes) / 3)
				if !h.ov.ActiveHost(host) {
					continue
				}
				if i%3 == 0 {
					h.InjectDelete(host)
				} else {
					h.InjectInsert(host, prio.ElemID(100+i), uint64(i*53%1000)+1, "")
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
