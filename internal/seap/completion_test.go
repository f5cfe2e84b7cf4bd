package seap

import (
	"fmt"
	"slices"
	"testing"

	"dpq/internal/aggtree"
	"dpq/internal/dht"
	"dpq/internal/hashutil"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// census counts what one cycle sent: per tag, the distinct instances
// StartMsgs carried and the UpMsgs; per completion tag, the round the last
// confirmation it waits for arrived (a Put's ack or a Get's answer) and
// the round its last UpMsg reached the anchor.
type census struct {
	starts           map[aggtree.Tag]map[uint64]bool
	ups              map[aggtree.Tag]int
	lastReply, ended map[aggtree.Tag]int
}

// cycleCensus runs one manual cycle of h and takes its census.
func cycleCensus(t *testing.T, h *Heap) census {
	t.Helper()
	eng := h.NewSyncEngine()
	c := census{map[aggtree.Tag]map[uint64]bool{}, map[aggtree.Tag]int{}, map[aggtree.Tag]int{}, map[aggtree.Tag]int{}}
	eng.SetObserver(func(d sim.Delivery) {
		switch m := d.Msg.(type) {
		case *aggtree.StartMsg:
			if c.starts[m.Tag] == nil {
				c.starts[m.Tag] = map[uint64]bool{}
			}
			c.starts[m.Tag][m.Seq] = true
		case *aggtree.UpMsg:
			c.ups[m.Tag]++
			if d.To == h.ov.Anchor {
				c.ended[m.Tag] = d.Round
			}
		case *dht.ReplyMsg:
			if m.Ack {
				c.lastReply[tagInsStore] = d.Round
			} else {
				c.lastReply[tagDelFetch] = d.Round
			}
		}
	})
	runCycle(t, h, eng)
	if !h.Done() {
		t.Fatalf("%d/%d ops done after the cycle", h.trace.DoneCount(), h.trace.Len())
	}
	return c
}

// runCycle runs one manual cycle of h on eng.
func runCycle(t *testing.T, h *Heap, eng *sim.SyncEngine) {
	t.Helper()
	h.StartCycle(eng.Context(h.ov.Anchor))
	if !eng.RunUntil(func() bool { return !h.inFlight }, maxRounds(h.cfg.N)) {
		t.Fatal("cycle did not end")
	}
}

// TestSeapCycleEndsByConvergecast pins a Seap cycle's tree instances. An
// extracting cycle starts count and assign once each and no other Seap
// instance (KSelect starts its own), and learns that every insert is
// stored and every delete answered from convergecasts the nodes begin
// themselves — one up message per tree edge each, except the edges to the
// right leaves, which hold no operation (aggtree.SkipRightLeaves), no
// start wave, and heard
// at most one tree height after the last confirmation. A cycle with k* = 0
// starts only the count, and its stores' convergecast ends it.
func TestSeapCycleEndsByConvergecast(t *testing.T) {
	check := func(t *testing.T, h *Heap, started, completion []aggtree.Tag) {
		c := cycleCensus(t, h)
		for tag, seqs := range c.starts {
			if want := slices.Contains(started, tag); tag < 10 && (len(seqs) != 1 || !want) {
				t.Errorf("%s: the anchor started %d instances, want %d", phaseName(tag), len(seqs), map[bool]int{true: 1}[want])
			}
		}
		for _, tag := range started {
			if c.starts[tag] == nil {
				t.Errorf("%s: the anchor started no instance, want 1", phaseName(tag))
			}
		}
		leftAndMiddle := 2*h.ov.N - 1 // non-anchor nodes that are no right leaf
		for _, tag := range []aggtree.Tag{tagInsStore, tagDelFetch} {
			want := 0
			if slices.Contains(completion, tag) {
				want = leftAndMiddle
			}
			if c.ups[tag] != want {
				t.Errorf("%s: %d up messages, want %d", phaseName(tag), c.ups[tag], want)
			}
			if last := c.lastReply[tag]; last > 0 && want > 0 {
				lag := c.ended[tag] - last
				t.Logf("%s: end heard %d rounds after the last confirmation (height %d)", phaseName(tag), lag, h.ov.TreeHeight())
				if lag > h.ov.TreeHeight() {
					t.Errorf("%s: the anchor heard the end %d rounds after the last confirmation, want ≤ height = %d", phaseName(tag), lag, h.ov.TreeHeight())
				}
			}
		}
		if rep := h.Check(); !rep.Ok() {
			t.Fatalf("semantics violated:\n%s", rep.Error())
		}
	}
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			n := 64
			h := New(Config{N: n, Seed: seed})
			h.SetAutoRepeat(false)
			for host := 0; host < n; host++ {
				h.InjectInsert(host, prio.ElemID(host+1), uint64(host%7)+1, "")
				if host%2 == 0 {
					h.InjectDelete(host)
				}
			}
			check(t, h, []aggtree.Tag{tagCount, tagAssign}, []aggtree.Tag{tagInsStore, tagDelFetch})
			if h.kStar < 1 {
				t.Fatalf("k* = %d, want a cycle that extracts", h.kStar)
			}
		})
	}
	// k* = 0: deletes on an empty heap skip the selection, the assign and
	// the fetch convergecast.
	t.Run("kstar0", func(t *testing.T) {
		h := New(Config{N: 64, Seed: 4})
		h.SetAutoRepeat(false)
		for host := 0; host < 64; host += 3 {
			h.InjectDelete(host)
		}
		check(t, h, []aggtree.Tag{tagCount}, []aggtree.Tag{tagInsStore})
		if h.kStar != 0 {
			t.Fatalf("k* = %d on an empty heap", h.kStar)
		}
	})
}

// FuzzSeapCycle drives whole cycles on the sync or the lossless async
// engine, standard or §6 variant, and checks the trace against the
// configuration's oracle and the anchor's size against the matched
// operations. Each op byte is a delete if its low bit is set, else an
// insert with priority (b>>1)+1; hosts are drawn from seed. The corpus
// covers n = 1, hosts with nothing to store, k* = 0 and all-⊥ deletes.
func FuzzSeapCycle(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1}, uint64(1), false, false)
	f.Add(uint8(7), []byte{1, 1, 1}, uint64(2), false, false)
	f.Add(uint8(15), []byte{8, 9, 4, 1, 1, 1, 1}, uint64(3), true, false)
	f.Add(uint8(4), []byte{2, 2, 2, 1, 3, 6, 1}, uint64(4), false, true)
	f.Add(uint8(23), []byte{10, 12, 1, 1, 14, 1}, uint64(5), true, true)
	f.Add(uint8(2), []byte{}, uint64(6), false, false)
	f.Fuzz(func(t *testing.T, nRaw uint8, ops []byte, seed uint64, async, seqCons bool) {
		n := int(nRaw)%24 + 1
		if len(ops) > 32 {
			ops = ops[:32]
		}
		h := New(Config{N: n, PrioBound: 128, Seed: seed, SeqConsistent: seqCons})
		rnd := hashutil.NewRand(seed ^ 0x9e3779b97f4a7c15)
		inserts := int64(0)
		for i, b := range ops {
			host := rnd.Intn(n)
			if b&1 == 1 {
				h.InjectDelete(host)
				continue
			}
			h.InjectInsert(host, prio.ElemID(i+1), uint64(b>>1)+1, "")
			inserts++
		}
		var eng sim.Engine
		budget := maxRounds(n) * (len(ops) + 2)
		if async {
			spec := h.Spec(sim.KindAsync)
			spec.MaxDelay = 3.0
			eng = sim.Build(spec)
			budget *= 200
		} else {
			eng = h.NewSyncEngine()
		}
		if !eng.RunUntil(h.Done, budget) {
			t.Fatalf("n=%d async=%v seqCons=%v: %d/%d ops done", n, async, seqCons, h.trace.DoneCount(), h.trace.Len())
		}
		if rep := h.Check(); !rep.Ok() {
			t.Fatalf("n=%d async=%v seqCons=%v: oracle rejects the trace:\n%s", n, async, seqCons, rep.Error())
		}
		matched := int64(0)
		for _, op := range h.Trace().Ops() {
			if op.Kind == semantics.DeleteMin && !op.Result.Nil() {
				matched++
			}
		}
		if h.Size() != inserts-matched {
			t.Fatalf("n=%d async=%v seqCons=%v: anchor holds %d elements, want %d inserts − %d matched deletes", n, async, seqCons, h.Size(), inserts, matched)
		}
	})
}
