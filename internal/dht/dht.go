// Package dht implements the distributed hash table embedded in the LDB
// (Lemma 2.2(ii)–(iv)): Put(k, e) stores element e at the virtual node
// responsible for key k's point on the cycle, Get(k, v) retrieves and
// removes it, delivering the element back to the requester. Requests are
// routed hop-by-hop over the LDB (O(log n) rounds w.h.p., Lemma 2.2(iii));
// replies travel directly, since requests carry a reference to the
// requester — the same convention the paper uses in §4.3.
//
// Asynchrony is handled exactly as §3.2.4 prescribes: a Get arriving
// before its matching Put waits at the responsible node until the Put
// arrives.
//
// Replies are plain messages: Put and Get return the request id that the
// matching ReplyMsg carries, and the issuing protocol handles the
// ReplyMsg itself, matching it against its own record of the request.
package dht

import (
	"sort"

	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// KeyPoint maps a 64-bit DHT key to its point on the cycle.
func KeyPoint(key uint64) float64 { return float64(key>>11) / float64(1<<53) }

// PutMsg stores Elem under Key at the responsible node. If AckTo is valid,
// the storing node confirms receipt (Seap's insert phase, §5.1).
type PutMsg struct {
	Key   uint64
	Elem  prio.Element
	AckTo sim.NodeID
	ReqID uint64
}

// Bits accounts key, element, and the ack reference.
func (m *PutMsg) Bits() int { return 64 + m.Elem.Bits() + 64 + 64 }

// Kind names the message for instrumentation (routed: "route/put").
func (m *PutMsg) Kind() string { return "put" }

// GetMsg retrieves (and removes) the element stored under Key, replying to
// ReplyTo. If the element is not present yet, the request waits at the
// responsible node.
type GetMsg struct {
	Key     uint64
	ReplyTo sim.NodeID
	ReqID   uint64
}

// Bits accounts key, reference and request id.
func (m *GetMsg) Bits() int { return 64 + 64 + 64 }

// Kind names the message for instrumentation (routed: "route/get").
func (m *GetMsg) Kind() string { return "get" }

// ReplyMsg answers a Get (Found=true) or confirms a Put (Ack=true).
type ReplyMsg struct {
	ReqID uint64
	Elem  prio.Element
	Found bool
	Ack   bool
}

// Bits accounts the request id, the element and two flags.
func (m *ReplyMsg) Bits() int { return 64 + m.Elem.Bits() + 2 }

// Kind names the message for instrumentation.
func (m *ReplyMsg) Kind() string { return "dht/reply" }

type waiter struct {
	replyTo sim.NodeID
	reqID   uint64
}

// fifo is what a node keeps under one key, in arrival order: the first
// entry inline and any later ones in more. Keys rarely collide (Skeap's
// are one per position, Seap's random), so a key's single element or
// parked Get costs no slice of its own. A key with nothing has no entry.
type fifo[T any] struct {
	first T
	more  []T
}

// push appends v to key's queue in m.
func push[T any](m map[uint64]fifo[T], key uint64, v T) {
	q, ok := m[key]
	if !ok {
		m[key] = fifo[T]{first: v}
		return
	}
	q.more = append(q.more, v)
	m[key] = q
}

// pop removes and returns the oldest entry of key's queue in m; ok is
// false when the key has none.
func pop[T any](m map[uint64]fifo[T], key uint64) (v T, ok bool) {
	q, ok := m[key]
	if !ok {
		return v, false
	}
	if len(q.more) == 0 {
		delete(m, key)
	} else {
		m[key] = fifo[T]{first: q.more[0], more: q.more[1:]}
	}
	return q.first, true
}

// all appends q's entries to dst in arrival order.
func (q fifo[T]) all(dst []T) []T { return append(append(dst, q.first), q.more...) }

// filter returns the n entries of q for which keep is true, in order, in
// q's own backing array.
func (q fifo[T]) filter(keep func(T) bool) (kept fifo[T], n int) {
	more := q.more[:0]
	for i := -1; i < len(q.more); i++ {
		v := q.first
		if i >= 0 {
			v = q.more[i]
		}
		if !keep(v) {
			continue
		}
		if n == 0 {
			kept.first = v
		} else {
			more = append(more, v)
		}
		n++
	}
	kept.more = more
	return kept, n
}

// DHT is the per-node component: each virtual node owns a shard of the key
// space and the Gets parked at it, and keeps no record of the requests it
// issues (see the package doc). Protocol handlers delegate routed
// PutMsg/GetMsg payloads to HandleRouted.
type DHT struct {
	ov      *ldb.Overlay
	store   map[uint64]fifo[prio.Element]
	pending map[uint64]fifo[waiter]
	nextReq uint64
}

// New creates the DHT component of one virtual node. The per-node maps are
// allocated lazily on first write: at million-node scale most virtual nodes
// never store an element or park a request, and empty map headers per
// node would dominate the idle footprint.
func New(ov *ldb.Overlay) *DHT {
	return &DHT{ov: ov}
}

// NewAll bulk-allocates the DHT components of n virtual nodes in one
// backing array (callers take &ds[i] per node). One allocation instead of
// n at construction; the returned slice must not be reallocated.
func NewAll(ov *ldb.Overlay, n int) []DHT {
	ds := make([]DHT, n)
	for i := range ds {
		ds[i].ov = ov
	}
	return ds
}

// StoreSize returns the number of elements stored at this node (fairness
// experiments, Lemma 2.2(iv)).
func (d *DHT) StoreSize() int {
	n := 0
	for _, q := range d.store {
		n += 1 + len(q.more)
	}
	return n
}

// Elements returns a copy of all elements stored in this node's shard
// (Seap loads KSelect candidates from it, §5.2). The result is in
// canonical (priority, id) order: d.store is a Go map, and letting its
// iteration order leak into protocol state would make runs irreproducible.
func (d *DHT) Elements() []prio.Element {
	var out []prio.Element
	for _, q := range d.store {
		out = q.all(out)
	}
	sortByKey(out)
	return out
}

// sortByKey orders elements canonically by (priority, id).
func sortByKey(es []prio.Element) {
	sort.Slice(es, func(i, j int) bool { return es[i].Less(es[j]) })
}

// Dump removes and returns the node's whole shard — used when membership
// changes move key ranges to different responsible nodes.
func (d *DHT) Dump() map[uint64][]prio.Element {
	out := make(map[uint64][]prio.Element, len(d.store))
	for key, q := range d.store {
		out[key] = q.all(nil)
	}
	d.store = nil
	return out
}

// Absorb stores elements under key without routing (membership-change
// migration; the receiving node is the key's new responsible node).
func (d *DHT) Absorb(key uint64, elems []prio.Element) {
	if d.store == nil {
		d.store = make(map[uint64]fifo[prio.Element])
	}
	for _, e := range elems {
		push(d.store, key, e)
	}
}

// Migrate hands every stored element of the n virtual nodes (node i's
// shard is store(i)) to the node responsible for its key under ov's
// current topology, and returns how many elements changed nodes. It is the
// state transfer of a membership change (§1.4(4), experiment E20): all
// shards are dumped before any is absorbed, so an element moves at most
// once, and shards sharing a key are absorbed in node order.
func Migrate(ov *ldb.Overlay, n int, store func(sim.NodeID) *DHT) int {
	type shard struct {
		key   uint64
		elems []prio.Element
		was   sim.NodeID
	}
	var all []shard
	for i := sim.NodeID(0); int(i) < n; i++ {
		for key, elems := range store(i).Dump() {
			all = append(all, shard{key: key, elems: elems, was: i})
		}
	}
	moved := 0
	for _, sh := range all {
		owner := ov.Responsible(KeyPoint(sh.key))
		store(owner).Absorb(sh.key, sh.elems)
		if owner != sh.was {
			moved += len(sh.elems)
		}
	}
	return moved
}

// PendingCount returns the number of parked Get requests.
func (d *DHT) PendingCount() int { return len(d.pending) }

// TakeLeq removes and returns every stored element whose key is ≤ bound —
// Seap's delete phase extracts the k most prioritized elements this way
// before re-storing them under their position keys. The result is in
// canonical (priority, id) order for the same reason as Elements: the
// caller turns it into position assignments, so map iteration order must
// not leak into the protocol.
func (d *DHT) TakeLeq(bound prio.Key) []prio.Element {
	var out []prio.Element
	for key, q := range d.store {
		if kept, n := q.filter(func(e prio.Element) bool {
			if prio.KeyOf(e).LessEq(bound) {
				out = append(out, e)
				return false
			}
			return true
		}); n == 0 {
			delete(d.store, key)
		} else {
			d.store[key] = kept
		}
	}
	sortByKey(out)
	return out
}

// Put routes a store request for (key, e). With ack, the storing node
// confirms with a ReplyMsg (Ack set) carrying the returned request id;
// without, no reply comes and the id is 0.
func (d *DHT) Put(ctx *sim.Context, self *ldb.VInfo, key uint64, e prio.Element, ack bool) uint64 {
	m := &PutMsg{Key: key, Elem: e, AckTo: sim.None}
	if ack {
		d.nextReq++
		m.AckTo, m.ReqID = self.ID, d.nextReq
	}
	d.dispatch(ctx, self, key, m)
	return m.ReqID
}

// Get routes a retrieve request for key and returns its request id. The
// element comes back to this node in a ReplyMsg (Found set) carrying that
// id once it has been fetched; an unmatched Get waits forever, per §3.2.4.
func (d *DHT) Get(ctx *sim.Context, self *ldb.VInfo, key uint64) uint64 {
	d.nextReq++
	m := &GetMsg{Key: key, ReplyTo: self.ID, ReqID: d.nextReq}
	d.dispatch(ctx, self, key, m)
	return m.ReqID
}

func (d *DHT) dispatch(ctx *sim.Context, self *ldb.VInfo, key uint64, payload sim.Message) {
	route := ldb.NewRoute(d.ov.N, KeyPoint(key), payload)
	if ldb.Forward(ctx, d.ov, self, route) {
		// This node is itself responsible for the key.
		d.deliver(ctx, payload)
	}
}

// HandleRouted consumes a routed DHT payload that arrived at this
// responsible node. Protocol handlers call it from their RouteMsg
// delivery path.
func (d *DHT) HandleRouted(ctx *sim.Context, payload sim.Message) bool {
	switch payload.(type) {
	case *PutMsg, *GetMsg:
		d.deliver(ctx, payload)
		return true
	}
	return false
}

func (d *DHT) deliver(ctx *sim.Context, payload sim.Message) {
	switch m := payload.(type) {
	case *PutMsg:
		if w, ok := pop(d.pending, m.Key); ok {
			// A Get outran this Put (§3.2.4): match immediately.
			ctx.Send(w.replyTo, &ReplyMsg{ReqID: w.reqID, Elem: m.Elem, Found: true})
		} else {
			if d.store == nil {
				d.store = make(map[uint64]fifo[prio.Element])
			}
			push(d.store, m.Key, m.Elem)
		}
		if m.AckTo != sim.None {
			ctx.Send(m.AckTo, &ReplyMsg{ReqID: m.ReqID, Ack: true})
		}
	case *GetMsg:
		if e, ok := pop(d.store, m.Key); ok {
			ctx.Send(m.ReplyTo, &ReplyMsg{ReqID: m.ReqID, Elem: e, Found: true})
		} else {
			if d.pending == nil {
				d.pending = make(map[uint64]fifo[waiter])
			}
			push(d.pending, m.Key, waiter{replyTo: m.ReplyTo, reqID: m.ReqID})
		}
	default:
		panic("dht: unexpected routed payload")
	}
}
