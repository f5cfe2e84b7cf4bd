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

// DHT is the per-node component: each virtual node owns a shard of the key
// space plus its outstanding-request table. Protocol handlers delegate
// routed PutMsg/GetMsg payloads and direct ReplyMsgs to Handle.
type DHT struct {
	ov      *ldb.Overlay
	store   map[uint64][]prio.Element
	pending map[uint64][]waiter
	nextReq uint64
	onReply map[uint64]func(e prio.Element, found bool)
	// aborted remembers requests cancelled by a partial-failure reset: a
	// straggler reply (for example a stale Put matching a parked Get of an
	// abandoned position) must be consumed silently instead of tripping the
	// unknown-request panic that guards against real protocol bugs.
	aborted map[uint64]bool
}

// New creates the DHT component of one virtual node. The per-node maps are
// allocated lazily on first write: at million-node scale most virtual nodes
// never store an element or issue a request, and four empty map headers per
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
	for _, es := range d.store {
		n += len(es)
	}
	return n
}

// Outstanding returns the number of local requests still awaiting replies.
func (d *DHT) Outstanding() int { return len(d.onReply) }

// Elements returns a copy of all elements stored in this node's shard
// (Seap loads KSelect candidates from it, §5.2). The result is in
// canonical (priority, id) order: d.store is a Go map, and letting its
// iteration order leak into protocol state would make runs irreproducible.
func (d *DHT) Elements() []prio.Element {
	var out []prio.Element
	for _, es := range d.store {
		out = append(out, es...)
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
	out := d.store
	d.store = nil
	return out
}

// Absorb stores elements under key without routing (membership-change
// migration; the receiving node is the key's new responsible node).
func (d *DHT) Absorb(key uint64, elems []prio.Element) {
	if d.store == nil {
		d.store = make(map[uint64][]prio.Element)
	}
	d.store[key] = append(d.store[key], elems...)
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
	for key, es := range d.store {
		kept := es[:0]
		for _, e := range es {
			if prio.KeyOf(e).LessEq(bound) {
				out = append(out, e)
			} else {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(d.store, key)
		} else {
			d.store[key] = kept
		}
	}
	sortByKey(out)
	return out
}

// Put routes a store request for (key, e). onAck, if non-nil, runs when
// the storing node confirms.
func (d *DHT) Put(ctx *sim.Context, self *ldb.VInfo, key uint64, e prio.Element, onAck func()) {
	m := &PutMsg{Key: key, Elem: e, AckTo: sim.None}
	if onAck != nil {
		d.nextReq++
		m.AckTo, m.ReqID = self.ID, d.nextReq
		d.setReply(m.ReqID, func(prio.Element, bool) { onAck() })
	}
	d.dispatch(ctx, self, key, m)
}

// Get routes a retrieve request for key; cb runs at this node with the
// element once it has been fetched (found is always true for matched
// requests — an unmatched Get waits forever, per §3.2.4). The returned
// request id can be passed to Abort when a reset cancels the fetch.
func (d *DHT) Get(ctx *sim.Context, self *ldb.VInfo, key uint64, cb func(e prio.Element, found bool)) uint64 {
	d.nextReq++
	m := &GetMsg{Key: key, ReplyTo: self.ID, ReqID: d.nextReq}
	d.setReply(m.ReqID, cb)
	d.dispatch(ctx, self, key, m)
	return m.ReqID
}

// Abort cancels an outstanding request: its callback will never run, and a
// straggler reply is dropped silently. Used by partial-failure resets. The
// aborted-id memory is bounded by the requests in flight at reset time; an
// id is reclaimed when its straggler reply arrives (fetches parked forever
// at a crashed node leak one map entry per reset).
func (d *DHT) Abort(reqID uint64) {
	if _, ok := d.onReply[reqID]; !ok {
		return
	}
	delete(d.onReply, reqID)
	if d.aborted == nil {
		d.aborted = make(map[uint64]bool)
	}
	d.aborted[reqID] = true
}

// setReply registers a reply callback, allocating the table on first use.
func (d *DHT) setReply(reqID uint64, cb func(prio.Element, bool)) {
	if d.onReply == nil {
		d.onReply = make(map[uint64]func(prio.Element, bool))
	}
	d.onReply[reqID] = cb
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

// Handle consumes direct DHT messages (replies). It reports whether the
// message belonged to the DHT.
func (d *DHT) Handle(ctx *sim.Context, from sim.NodeID, msg sim.Message) bool {
	r, ok := msg.(*ReplyMsg)
	if !ok {
		return false
	}
	cb, known := d.onReply[r.ReqID]
	if !known {
		if d.aborted[r.ReqID] {
			delete(d.aborted, r.ReqID)
			return true
		}
		panic("dht: reply for unknown request")
	}
	delete(d.onReply, r.ReqID)
	cb(r.Elem, r.Found)
	return true
}

func (d *DHT) deliver(ctx *sim.Context, payload sim.Message) {
	switch m := payload.(type) {
	case *PutMsg:
		if ws := d.pending[m.Key]; len(ws) > 0 {
			// A Get outran this Put (§3.2.4): match immediately.
			w := ws[0]
			d.pending[m.Key] = ws[1:]
			if len(d.pending[m.Key]) == 0 {
				delete(d.pending, m.Key)
			}
			ctx.Send(w.replyTo, &ReplyMsg{ReqID: w.reqID, Elem: m.Elem, Found: true})
		} else {
			if d.store == nil {
				d.store = make(map[uint64][]prio.Element)
			}
			d.store[m.Key] = append(d.store[m.Key], m.Elem)
		}
		if m.AckTo != sim.None {
			ctx.Send(m.AckTo, &ReplyMsg{ReqID: m.ReqID, Ack: true})
		}
	case *GetMsg:
		if es := d.store[m.Key]; len(es) > 0 {
			e := es[0]
			d.store[m.Key] = es[1:]
			if len(d.store[m.Key]) == 0 {
				delete(d.store, m.Key)
			}
			ctx.Send(m.ReplyTo, &ReplyMsg{ReqID: m.ReqID, Elem: e, Found: true})
		} else {
			if d.pending == nil {
				d.pending = make(map[uint64][]waiter)
			}
			d.pending[m.Key] = append(d.pending[m.Key], waiter{replyTo: m.ReplyTo, reqID: m.ReqID})
		}
	default:
		panic("dht: unexpected routed payload")
	}
}
