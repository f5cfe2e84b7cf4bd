package sim

import (
	"math/bits"
	"slices"

	"dpq/internal/hashutil"
)

// SyncEngine drives handlers in the standard synchronous message-passing
// model: time proceeds in rounds; all messages sent in round i are
// processed in round i+1; every node is activated once per round after
// draining its channel. A node whose handler declares itself passive
// (PassiveHandler) is not activated: its Activate would do nothing, and an
// activation without effect cannot be observed; one that comes to have work
// without mail asks for a single activation (WakeableHandler). A round
// therefore costs O(messages + active nodes), not O(nodes). The round runs
// on the calling goroutine; real concurrency is the network runtime's
// (internal/netrun).
//
// Node state is stored struct-of-arrays (ARCHITECTURE.md §14): contexts
// and PRNG states are flat value slices addressed by node index, and
// messages live in two pooled arenas instead of per-node slices, so the
// engine's own footprint is a few dozen bytes per node and a
// million-node network fits comfortably in memory.
type SyncEngine struct {
	handlers []Handler
	// contexts/rands are flat per-node value arrays; contexts[i].rand
	// points at rands[i]. The initial streams are derived on demand from
	// the engine seed (hashutil.ForkSeedAt), matching the fork chain the
	// engine historically materialized eagerly. Context pointers returned
	// by Context(id) are invalidated by AddHandler — re-fetch after growth.
	contexts []Context
	rands    []hashutil.Rand
	// group maps a simulated node to its real process for congestion
	// accounting; identity when nil.
	group func(NodeID) int
	nGrp  int

	// Message arenas, recycled round to round (allocation-free in steady
	// state). Sends append to pend in chronological order, bump the
	// destination's cnt and add it to dests; Step seals the round by
	// scattering pend into box, stably per destination, and listing the
	// nodes with mail in inbox in increasing id order, so node
	// inbox[k].to's messages are box[inbox[k-1].hi:inbox[k].hi] (from 0
	// for k = 0).
	pend  []envelope   // sent this round, deliverable next round (unsorted)
	cnt   []int32      // per-node pending counts, len == len(handlers)
	dests []uint64     // bit i%64 of dests[i/64]: node i has pending mail
	box   []boxedEnv   // sealed inbox arena of the current round
	inbox []inboxRange // the current round's non-empty inboxes, by increasing node id

	// active lists the nodes whose handler is not passive, in increasing
	// id order: the nodes Step activates every round. woken lists the
	// passive nodes a WakeableHandler asked to activate in the next Step;
	// wakeFn is the one func value handed to those handlers.
	active []NodeID
	woken  []NodeID
	wakeFn func(NodeID)

	// roundLoad is the per-group delivery count of the current round and
	// roundMax its maximum; Step zeroes the groups of the round's
	// inboxes, so a round never touches every group.
	roundLoad []int
	roundMax  int

	observer func(Delivery)

	strict  bool
	metrics Metrics
}

// inboxRange is one node's sealed inbox: it ends at box[hi] and starts
// where the previous range ends (at 0 for the first). Eight bytes: the
// list has room for every node, twice the size of a dense offset array.
type inboxRange struct {
	to, hi int32
}

// boxedEnv is one sealed-inbox entry. The destination is implicit in the
// arena range the entry occupies, so it is not stored.
type boxedEnv struct {
	from NodeID
	msg  Message
}

// newSync creates a synchronous engine over the given handlers. groups is
// the number of real processes and group maps node → process; pass 0 and
// nil for the identity mapping.
func newSync(handlers []Handler, seed uint64, groups int, group func(NodeID) int) *SyncEngine {
	n := len(handlers)
	if group == nil {
		groups = n
		group = func(id NodeID) int { return int(id) }
	}
	e := &SyncEngine{
		handlers:  handlers,
		contexts:  make([]Context, n),
		rands:     make([]hashutil.Rand, n),
		group:     group,
		nGrp:      groups,
		cnt:       make([]int32, n),
		dests:     make([]uint64, (n+63)/64),
		inbox:     make([]inboxRange, 0, n),
		roundLoad: make([]int, groups),
		strict:    strictDefault(),
	}
	e.wakeFn = e.wake
	e.metrics.Deliveries = make([]int64, groups)
	for i, h := range handlers {
		// Byte-identical to forking a root NewRand(seed) once per node, in
		// node order, but derivable per node in O(1).
		e.rands[i] = *hashutil.NewRand(hashutil.ForkSeedAt(seed, uint64(i)))
		e.contexts[i] = Context{id: NodeID(i), rand: &e.rands[i], engine: e}
		if w, ok := h.(WakeableHandler); ok {
			w.SetWake(e.wakeFn)
		}
	}
	e.RefreshActive()
	return e
}

// AddHandler grows the network by one node (dynamic membership). The new
// node starts with an empty channel; group must already cover its id. It
// returns the new node's id. Growth re-points the flat context array:
// *Context pointers obtained before AddHandler must be re-fetched.
func (e *SyncEngine) AddHandler(h Handler, seed uint64) NodeID {
	id := NodeID(len(e.handlers))
	e.handlers = append(e.handlers, h)
	e.rands = append(e.rands, *hashutil.NewRand(hashutil.Mix2(seed, uint64(id))))
	e.contexts = append(e.contexts, Context{id: id, engine: e})
	// Either append may have moved its array; re-point every context at its
	// PRNG slot.
	for i := range e.contexts {
		e.contexts[i].rand = &e.rands[i]
	}
	e.cnt = append(e.cnt, 0)
	if int(id)>>6 == len(e.dests) {
		e.dests = append(e.dests, 0)
	}
	if !isPassive(h) {
		e.active = append(e.active, id)
	}
	if w, ok := h.(WakeableHandler); ok {
		w.SetWake(e.wakeFn)
	}
	if g := e.group(id); g >= e.nGrp {
		e.nGrp = g + 1
	}
	for len(e.metrics.Deliveries) < e.nGrp {
		e.metrics.Deliveries = append(e.metrics.Deliveries, 0)
		e.roundLoad = append(e.roundLoad, 0)
	}
	return id
}

// RefreshActive re-reads every handler's Passive answer. The engine reads
// it when a handler joins; a driver that changes the answer of a handler
// already in the engine (an anchor hand-over) calls RefreshActive before
// the next Step. O(n): for membership changes, not for rounds.
func (e *SyncEngine) RefreshActive() {
	e.active = e.active[:0]
	for i, h := range e.handlers {
		if !isPassive(h) {
			e.active = append(e.active, NodeID(i))
		}
	}
}

func (e *SyncEngine) send(from, to NodeID, msg Message) {
	if int(to) < 0 || int(to) >= len(e.handlers) {
		panic("sim: send to unknown node")
	}
	e.pend = append(e.pend, envelope{from: from, to: to, msg: msg})
	if e.cnt[to] == 0 {
		e.dests[to>>6] |= 1 << (uint(to) & 63)
	}
	e.cnt[to]++
}

// Pending reports whether any message is waiting for delivery.
func (e *SyncEngine) Pending() bool {
	return len(e.pend) > 0
}

// seal makes the pending sends deliverable: it lists the nodes with mail in
// inbox, in increasing id order, and scatters pend into box so that each
// node's range holds its messages in exactly the order they were sent.
// It reads one bit per node, a word at a time, and resets only the
// counters it used. The arenas are recycled, so rounds no larger than a
// previous one allocate nothing, and the inbox list is made with room for
// every node, so it grows only after AddHandler.
func (e *SyncEngine) seal() {
	e.inbox = e.inbox[:0]
	s := int32(0)
	for w, word := range e.dests {
		if word == 0 {
			continue
		}
		e.dests[w] = 0
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			c := e.cnt[i]
			e.cnt[i] = s // becomes the scatter cursor
			s += c
			e.inbox = append(e.inbox, inboxRange{to: int32(i), hi: s})
		}
	}
	// Size the sealed arena, dropping message references beyond the new
	// length so a one-off burst round does not pin its messages forever.
	switch {
	case int(s) <= len(e.box):
		clear(e.box[s:])
		e.box = e.box[:s]
	case int(s) <= cap(e.box):
		e.box = e.box[:s]
	default:
		e.box = make([]boxedEnv, s)
	}
	for _, env := range e.pend {
		j := e.cnt[env.to]
		e.cnt[env.to] = j + 1
		e.box[j] = boxedEnv{from: env.from, msg: env.msg}
	}
	clear(e.pend) // release the arena's message references; box owns them now
	e.pend = e.pend[:0]
	for _, r := range e.inbox {
		e.cnt[r.to] = 0
	}
}

// Step executes one synchronous round: every node with mail drains its
// channel, then every active node is activated once, both in increasing
// id order, and so is every passive node woken since the last Step (see
// WakeableHandler). It returns the number of messages delivered.
func (e *SyncEngine) Step() int {
	// Messages sent in the previous round become deliverable now.
	e.seal()
	lo := int32(0)
	for _, r := range e.inbox {
		id := NodeID(r.to)
		g := e.group(id)
		h := e.handlers[id]
		ctx := &e.contexts[id]
		for _, env := range e.box[lo:r.hi] {
			bits := env.msg.Bits()
			e.metrics.observe(g, bits, e.strict)
			if e.observer != nil {
				e.observer(Delivery{Round: e.metrics.Rounds, From: env.from, To: id, Group: g, Bits: bits, Msg: env.msg})
			}
			h.HandleMessage(ctx, env.from, env.msg)
		}
		if g >= 0 && g < len(e.roundLoad) {
			e.roundLoad[g] += int(r.hi - lo)
			e.roundMax = max(e.roundMax, e.roundLoad[g])
		}
		lo = r.hi
	}
	e.activate()
	// Fold the round's load into Congestion, zeroing only the groups it
	// touched.
	for _, r := range e.inbox {
		if g := e.group(NodeID(r.to)); g >= 0 && g < len(e.roundLoad) {
			e.roundLoad[g] = 0
		}
	}
	e.metrics.Congestion = max(e.metrics.Congestion, e.roundMax)
	e.roundMax = 0
	e.metrics.Rounds++
	return len(e.box)
}

// wake schedules one activation of node id in the next Step (see
// WakeableHandler).
func (e *SyncEngine) wake(id NodeID) {
	e.woken = append(e.woken, id)
}

// activate runs the round's activations: the active nodes and the woken
// ones, merged in increasing id order, each once. Wakes raised during the
// activations are for the next round.
func (e *SyncEngine) activate() {
	w := e.woken
	if len(w) == 0 {
		for _, id := range e.active {
			e.handlers[id].Activate(&e.contexts[id])
		}
		return
	}
	e.woken = nil
	slices.Sort(w)
	rest := slices.Compact(w)
	for a := e.active; len(a) > 0 || len(rest) > 0; {
		var id NodeID
		if len(rest) == 0 || len(a) > 0 && a[0] <= rest[0] {
			id, a = a[0], a[1:]
			if len(rest) > 0 && rest[0] == id {
				rest = rest[1:]
			}
		} else {
			id, rest = rest[0], rest[1:]
		}
		e.handlers[id].Activate(&e.contexts[id])
	}
	if e.woken == nil {
		e.woken = w[:0]
	}
}

// RunUntil steps the engine until done() returns true or maxRounds rounds
// have elapsed. It returns true when done() was satisfied.
func (e *SyncEngine) RunUntil(done func() bool, maxRounds int) bool {
	for r := 0; r < maxRounds; r++ {
		if done() {
			return true
		}
		e.Step()
	}
	return done()
}

// RunQuiescent steps until no message is in flight and done() holds (or
// maxRounds elapses). Protocols that idle between phases need done to
// describe completion, since an empty network does not imply completion.
func (e *SyncEngine) RunQuiescent(done func() bool, maxRounds int) bool {
	for r := 0; r < maxRounds; r++ {
		if !e.Pending() && done() {
			return true
		}
		e.Step()
	}
	return !e.Pending() && done()
}

// SetObserver installs a callback invoked for every delivered message,
// after metric accounting and before the handler runs. Observability only
// — protocols must not depend on it.
func (e *SyncEngine) SetObserver(f func(Delivery)) {
	e.observer = f
}

// SetStrictAccounting overrides the strict-mode default (panic on an
// out-of-range congestion group under `go test`, count into
// Metrics.Dropped otherwise).
func (e *SyncEngine) SetStrictAccounting(on bool) { e.strict = on }

// Metrics returns the accumulated cost measures.
func (e *SyncEngine) Metrics() *Metrics { return &e.metrics }

// Context returns node id's context, for injecting initial actions. The
// pointer is into a flat array: it is valid until the next AddHandler.
func (e *SyncEngine) Context(id NodeID) *Context { return &e.contexts[id] }
