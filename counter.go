package dpq

import (
	"sync"

	"dpq/internal/aggtree"
	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/sim"
)

const tagCounter aggtree.Tag = 1

// valueShare is the scattered value interval.
type valueShare struct{ Lo, Hi int64 }

// Bits accounts two integers.
func (v *valueShare) Bits() int { return 2 * 64 }

type increment struct {
	done func(value int64)
}

type counterNode struct {
	c      *Counter
	runner aggtree.Runner

	mu     sync.Mutex
	buf    []increment
	snaps  map[uint64][]increment
	anchor struct {
		next     int64
		inFlight bool
		nextSeq  uint64
		batches  int
	}
}

// Counter is a distributed fetch-and-increment counter (§1's distributed
// counting application): every increment receives a unique, gap-free,
// sequentially consistent value via the aggregation tree.
//
// A fetch-and-increment counter is exactly the degenerate heap position
// assignment: nodes buffer increments, the aggregation tree gathers the
// counts, the anchor hands out a contiguous value interval, and the
// interval is decomposed back down, in O(log n) rounds per batch and
// without a shared memory cell.
type Counter struct {
	ov     *ldb.Overlay
	nodes  []*counterNode
	protos aggtree.Table

	mu        sync.Mutex
	issued    int64
	completed int64
}

// NewCounter builds a distributed counter over n processes. Values start
// at 1.
func NewCounter(n int, seed uint64) *Counter {
	c := &Counter{ov: ldb.New(n, hashutil.New(seed))}
	c.protos.Register(tagCounter, c.proto())
	c.nodes = make([]*counterNode, c.ov.NumVirtual())
	for i := range c.nodes {
		nd := &counterNode{c: c, runner: c.protos.Runner(), snaps: make(map[uint64][]increment)}
		nd.anchor.next = 1
		c.nodes[i] = nd
	}
	return c
}

// Handlers returns the per-virtual-node sim handlers.
func (c *Counter) Handlers() []sim.Handler {
	hs := make([]sim.Handler, len(c.nodes))
	for i, nd := range c.nodes {
		hs[i] = &counterHandler{n: nd, id: sim.NodeID(i)}
	}
	return hs
}

// NewSyncEngine wires the counter into a synchronous engine.
func (c *Counter) NewSyncEngine(seed uint64) *sim.SyncEngine {
	groups, group := c.ov.Group()
	return sim.Build(sim.Spec{Handlers: c.Handlers(), Seed: seed, Groups: groups, Group: group}).(*sim.SyncEngine)
}

// Increment requests a fetch-and-increment at the given process; done is
// invoked with the assigned value when the batch containing it completes.
func (c *Counter) Increment(host int, done func(value int64)) {
	nd := c.nodes[ldb.VID(host, ldb.Middle)]
	nd.mu.Lock()
	nd.buf = append(nd.buf, increment{done: done})
	nd.mu.Unlock()
	c.mu.Lock()
	c.issued++
	c.mu.Unlock()
}

// Done reports whether every requested increment received its value.
func (c *Counter) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.completed == c.issued
}

// Batches returns how many aggregation batches the anchor processed.
func (c *Counter) Batches() int { return c.nodes[c.ov.Anchor].anchor.batches }

func (c *Counter) complete() {
	c.mu.Lock()
	c.completed++
	c.mu.Unlock()
}

type counterHandler struct {
	n  *counterNode
	id sim.NodeID
}

func (h *counterHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if !h.n.runner.Handle(ctx, h.n.c.ov.Info(h.id), from, msg) {
		panic("counter: unexpected message")
	}
}

func (h *counterHandler) Activate(ctx *sim.Context) {
	n := h.n
	if h.id != n.c.ov.Anchor || n.anchor.inFlight {
		return
	}
	n.anchor.inFlight = true
	n.anchor.batches++
	seq := n.anchor.nextSeq
	n.anchor.nextSeq++
	n.runner.Start(ctx, n.c.ov.Info(h.id), tagCounter, seq, nil)
}

func (c *Counter) proto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "counter",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, _ aggtree.Value) aggtree.Value {
			n := c.nodes[self.ID]
			n.mu.Lock()
			snap := n.buf
			n.buf = nil
			n.mu.Unlock()
			n.snaps[seq] = snap
			return aggtree.IntVal(len(snap))
		},
		Combine: func(self *ldb.VInfo, seq uint64, _ aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			t := own.(aggtree.IntVal)
			for _, kv := range kids {
				t += kv.V.(aggtree.IntVal)
			}
			return t
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, _ aggtree.Value, combined aggtree.Value) aggtree.Value {
			n := c.nodes[self.ID]
			k := int64(combined.(aggtree.IntVal))
			lo := n.anchor.next
			n.anchor.next += k
			n.anchor.inFlight = false
			return &valueShare{Lo: lo, Hi: lo + k - 1}
		},
		Split: func(self *ldb.VInfo, seq uint64, _ aggtree.Value, down aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) (aggtree.Value, []aggtree.Value) {
			share := down.(*valueShare)
			lo := share.Lo
			ownC := int64(own.(aggtree.IntVal))
			ownPart := &valueShare{Lo: lo, Hi: lo + ownC - 1}
			lo += ownC
			parts := make([]aggtree.Value, len(kids))
			for i, kv := range kids {
				kc := int64(kv.V.(aggtree.IntVal))
				parts[i] = &valueShare{Lo: lo, Hi: lo + kc - 1}
				lo += kc
			}
			if lo != share.Hi+1 {
				panic("counter: interval decomposition does not cover")
			}
			return ownPart, parts
		},
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, _ aggtree.Value, ownPart aggtree.Value) {
			n := c.nodes[self.ID]
			share := ownPart.(*valueShare)
			snap := n.snaps[seq]
			delete(n.snaps, seq)
			if int64(len(snap)) != share.Hi-share.Lo+1 {
				panic("counter: share does not match snapshot")
			}
			for i, p := range snap {
				if p.done != nil {
					p.done(share.Lo + int64(i))
				}
				c.complete()
			}
		},
	}
}
