package skeap

import (
	"testing"

	"dpq/internal/aggtree"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// quietRig is a continuous-mode heap on a synchronous engine whose
// observer counts the wakes delivered and reports every delivery to an
// optional hook, and whose handlers count their activations.
type quietRig struct {
	h     *Heap
	eng   *sim.SyncEngine
	acts  []*activationCounter
	wakes int
	hook  func(sim.Delivery)
}

func newQuietRig(n int, seed uint64) *quietRig {
	r := &quietRig{h: New(Config{N: n, P: 2, Seed: seed})}
	spec := r.h.Spec(sim.KindSync)
	for i, hd := range spec.Handlers {
		c := &activationCounter{nodeHandler: hd.(*nodeHandler)}
		r.acts = append(r.acts, c)
		spec.Handlers[i] = c
	}
	r.eng = sim.Build(spec).(*sim.SyncEngine)
	r.eng.SetObserver(func(d sim.Delivery) {
		if _, ok := d.Msg.(*WakeMsg); ok {
			r.wakes++
		}
		if r.hook != nil {
			r.hook(d)
		}
	})
	return r
}

// idle runs until every op completed and no message is in flight: the
// anchor has run its empty batch and gone quiet.
func (r *quietRig) idle(t *testing.T) {
	t.Helper()
	if !r.eng.RunQuiescent(r.h.Done, maxRounds(r.h.cfg.N)) {
		t.Fatalf("stuck: %d/%d ops done", r.h.trace.DoneCount(), r.h.trace.Len())
	}
	if a := r.h.nodes[r.h.ov.Anchor]; !a.quiet || a.inFlight {
		t.Fatalf("idle network: anchor quiet=%v inFlight=%v", a.quiet, a.inFlight)
	}
}

// check requires the trace to be sequentially and heap consistent.
func (r *quietRig) check(t *testing.T) {
	t.Helper()
	if rep := semantics.CheckAll(r.h.Trace(), semantics.FIFO); !rep.Ok() {
		t.Fatalf("semantics violated:\n%s", rep.Error())
	}
}

// middleNotAnchor returns a host whose middle node is not the anchor.
func (r *quietRig) middleNotAnchor(from int) int {
	for host := from; ; host++ {
		if ldb.VID(host%r.h.cfg.N, ldb.Middle) != r.h.ov.Anchor {
			return host % r.h.cfg.N
		}
	}
}

// activations counts the activations of every node so far.
func (r *quietRig) activations() int {
	total := 0
	for _, c := range r.acts {
		total += c.acts
	}
	return total
}

// TestIdleAnchorGoesQuiet: after its last operation completes an idle
// network starts at most one empty batch and then nothing at all — no
// batch, no message, no activation — for 10 000 rounds.
func TestIdleAnchorGoesQuiet(t *testing.T) {
	r := newQuietRig(16, 61)
	for i := 0; i < 40; i++ {
		if i%3 == 2 {
			r.h.InjectDelete(i % 16)
		} else {
			r.h.InjectInsert(i%16, prio.ElemID(i+1), i%2, "")
		}
	}
	if !r.eng.RunUntil(r.h.Done, maxRounds(16)) {
		t.Fatal("workload did not complete")
	}
	atDone, emptyAtDone := r.h.Iterations(), r.h.EmptyIterations()
	r.idle(t)
	if started := r.h.Iterations() - atDone; started > 1 {
		t.Fatalf("%d batches started after the last op completed, want at most 1", started)
	}
	if empty := r.h.EmptyIterations(); empty < 1 || empty > emptyAtDone+1 {
		t.Fatalf("%d empty batches (%d at completion)", empty, emptyAtDone)
	}
	iters, msgs, acts := r.h.Iterations(), r.eng.Metrics().Messages, r.activations()
	for i := 0; i < 10_000; i++ {
		r.eng.Step()
	}
	if got := r.activations(); got != acts {
		t.Fatalf("an idle network was activated %d times in 10 000 rounds", got-acts)
	}
	if got := r.h.Iterations(); got != iters {
		t.Fatalf("an idle anchor started %d batches in 10 000 rounds", got-iters)
	}
	if got := r.eng.Metrics().Messages; got != msgs {
		t.Fatalf("an idle network delivered %d messages in 10 000 rounds", got-msgs)
	}
	if r.wakes != 0 {
		t.Fatalf("%d wakes without an injection", r.wakes)
	}
	r.check(t)
}

// TestInjectWhileQuietCompletes: operations injected at quiet nodes wake
// the anchor through their parent chains, at most one wake per node, and
// complete in one batch.
func TestInjectWhileQuietCompletes(t *testing.T) {
	r := newQuietRig(16, 62)
	r.h.InjectInsert(3, 1, 0, "")
	r.idle(t)
	for round := 0; round < 3; round++ {
		iters, wakes := r.h.Iterations(), r.wakes
		hosts := []int{r.middleNotAnchor(5 + round), r.middleNotAnchor(11 + round)}
		r.h.InjectInsert(hosts[0], prio.ElemID(10+round), 1, "")
		r.h.InjectDelete(hosts[1])
		r.h.InjectDelete(hosts[0])
		r.idle(t)
		// One non-empty batch plus the empty one that ends in quiet.
		if got := r.h.Iterations() - iters; got != 2 {
			t.Fatalf("round %d: %d batches for one burst of injections, want 2", round, got)
		}
		// Each node forwards at most one wake per epoch: at most one per
		// tree edge, and at least the injecting nodes' own.
		if got := r.wakes - wakes; got < 1 || got > len(r.h.nodes)-1 {
			t.Fatalf("round %d: %d wakes delivered", round, got)
		}
	}
	r.check(t)
}

// TestBufferedAfterEmptySnapshotCompletes: an operation buffered after a
// node snapshotted the empty batch, but before that batch's quiet down
// wave reaches it, is carried by the wake the node sends when the down
// wave arrives — the node never sees an injection while quiet.
func TestBufferedAfterEmptySnapshotCompletes(t *testing.T) {
	r := newQuietRig(16, 63)
	r.h.InjectInsert(2, 1, 0, "")
	r.idle(t)
	host := r.middleNotAnchor(9)
	x := ldb.VID(host, ldb.Middle)

	// The burst batch s carries one insert; the anchor starts the empty
	// batch s+1 right after scattering s. Inject at x once x has
	// snapshotted s+1 and before s+1's down part reaches it.
	empty := r.h.nodes[r.h.ov.Anchor].nextSeq + 1
	var snapped, downSeen, injected bool
	r.hook = func(d sim.Delivery) {
		if d.To != x {
			return
		}
		switch m := d.Msg.(type) {
		case *aggtree.StartMsg:
			snapped = snapped || m.Seq == empty
		case *aggtree.DownMsg:
			if m.Seq == empty && !injected {
				downSeen = true
			}
		}
	}
	r.h.InjectInsert(r.middleNotAnchor(4), 2, 1, "")
	for i := 0; i < maxRounds(16) && !injected; i++ {
		r.eng.Step()
		if snapped && !downSeen {
			r.h.InjectDelete(host)
			injected = true
		}
	}
	if !injected || downSeen {
		t.Fatalf("no window between the snapshot of batch %d and its down wave at node %d", empty, x)
	}
	if x := r.h.nodes[x]; x.quiet {
		t.Fatal("the node is quiet before the down wave reached it")
	}
	wakes := r.wakes
	r.idle(t)
	if r.wakes == wakes {
		t.Fatal("the buffered delete completed without a wake")
	}
	for _, op := range r.h.Trace().Ops() {
		if op.Kind == semantics.DeleteMin && op.Node == host && op.Result.ID != 1 {
			t.Fatalf("delete returned %v, want element 1", op.Result)
		}
	}
	r.check(t)
}

// TestSparseWakeMatchesDense: a quiet network driven by passive nodes
// woken on injection runs exactly like one whose every node is activated
// every round — same rounds, messages and trace.
func TestSparseWakeMatchesDense(t *testing.T) {
	run := func(dense bool) (sim.Metrics, []string) {
		h := New(Config{N: 12, P: 2, Seed: 64})
		spec := h.Spec(sim.KindSync)
		if dense {
			for i, hd := range spec.Handlers {
				spec.Handlers[i] = denseHandler{hd}
			}
		}
		eng := sim.Build(spec).(*sim.SyncEngine)
		var log []string
		eng.SetObserver(func(d sim.Delivery) {
			log = append(log, sim.KindOf(d.Msg))
		})
		id := prio.ElemID(1)
		for burst := 0; burst < 6; burst++ {
			for i := 0; i < burst%3+1; i++ {
				h.InjectInsert((burst*5+i)%12, id, i%2, "")
				id++
				h.InjectDelete((burst*7 + i) % 12)
			}
			for i := 0; i < 40*(burst+1); i++ {
				eng.Step()
			}
		}
		if !eng.RunQuiescent(h.Done, maxRounds(12)) {
			t.Fatalf("dense=%v: stuck", dense)
		}
		return *eng.Metrics(), log
	}
	sm, slog := run(false)
	dm, dlog := run(true)
	if sm.Rounds != dm.Rounds || sm.Messages != dm.Messages || sm.TotalBits != dm.TotalBits {
		t.Fatalf("sparse %d rounds %d msgs %d bits, dense %d %d %d",
			sm.Rounds, sm.Messages, sm.TotalBits, dm.Rounds, dm.Messages, dm.TotalBits)
	}
	if len(slog) != len(dlog) {
		t.Fatalf("sparse delivered %d messages, dense %d", len(slog), len(dlog))
	}
	for i := range slog {
		if slog[i] != dlog[i] {
			t.Fatalf("delivery %d: sparse %s, dense %s", i, slog[i], dlog[i])
		}
	}
}

// denseHandler hides Passive and SetWake: the engine activates the node
// every round.
type denseHandler struct{ sim.Handler }
