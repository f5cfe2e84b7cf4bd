package sim

import "dpq/internal/hashutil"

// SyncEngine drives handlers in the standard synchronous message-passing
// model: time proceeds in rounds; all messages sent in round i are
// processed in round i+1; every node is activated once per round after
// draining its channel.
//
// The engine has two execution modes producing identical results: the
// default serial mode runs every node on the calling goroutine, and the
// parallel mode (SetParallel) partitions each round's node set across a
// worker pool — see syncpar.go for the determinism argument.
//
// Node state is stored struct-of-arrays (ARCHITECTURE.md §15): contexts
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
	// accounting; identity when nil. Group functions must be pure: the
	// parallel mode calls them from several goroutines.
	group func(NodeID) int
	nGrp  int

	// Message arenas, recycled round to round (allocation-free in steady
	// state). Sends append to pend in chronological order and bump the
	// destination's cnt; Step seals the round by stable counting-sorting
	// pend into box, after which node i's inbox is the contiguous range
	// box[start[i]:start[i+1]].
	pend  []envelope // sent this round, deliverable next round (unsorted)
	cnt   []int32    // per-node pending counts, len == len(handlers)
	box   []boxedEnv // sealed inbox arena of the current round
	start []int32    // per-node offsets into box, len == len(handlers)+1

	// roundLoad is the per-group delivery count of the current round,
	// reused across rounds to keep Step allocation-free.
	roundLoad []int

	observer      func(Delivery)
	batchObserver func([]Delivery)
	obsBuf        []Delivery // reusable round buffer for batchObserver

	workers int         // >1 enables the parallel stepping path
	recs    []nodeRec   // per-node outbox ranges (parallel mode)
	pws     []parWorker // per-worker arenas and metric accumulators (parallel mode)

	strict  bool
	metrics Metrics
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
		handlers: handlers,
		contexts: make([]Context, n),
		rands:    make([]hashutil.Rand, n),
		group:    group,
		nGrp:     groups,
		cnt:      make([]int32, n),
		start:    make([]int32, n+1),
		strict:   strictDefault(),
	}
	e.metrics.Deliveries = make([]int64, groups)
	for i := range handlers {
		// Byte-identical to forking a root NewRand(seed) once per node, in
		// node order, but derivable per node in O(1).
		e.rands[i] = *hashutil.NewRand(hashutil.ForkSeedAt(seed, uint64(i)))
		e.contexts[i] = Context{id: NodeID(i), rand: &e.rands[i], engine: e}
	}
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
	if g := e.group(id); g >= e.nGrp {
		e.nGrp = g + 1
	}
	for len(e.metrics.Deliveries) < e.nGrp {
		e.metrics.Deliveries = append(e.metrics.Deliveries, 0)
	}
	return id
}

func (e *SyncEngine) send(from, to NodeID, msg Message) {
	if int(to) < 0 || int(to) >= len(e.handlers) {
		panic("sim: send to unknown node")
	}
	e.pend = append(e.pend, envelope{from: from, to: to, msg: msg})
	e.cnt[to]++
}

// Pending reports whether any message is waiting for delivery.
func (e *SyncEngine) Pending() bool {
	return len(e.pend) > 0
}

// ensureRoundLoad sizes and zeroes the reusable per-round load counters.
func (e *SyncEngine) ensureRoundLoad() {
	if cap(e.roundLoad) < e.nGrp {
		e.roundLoad = make([]int, e.nGrp)
	}
	e.roundLoad = e.roundLoad[:e.nGrp]
	clear(e.roundLoad)
}

// seal makes the pending sends deliverable: a stable counting sort
// scatters pend into box so that node i's inbox is box[start[i]:start[i+1]]
// in exactly the order the messages were sent. Both arenas are recycled;
// rounds no larger than a previous one allocate nothing.
func (e *SyncEngine) seal() {
	n := len(e.handlers)
	if cap(e.start) < n+1 {
		e.start = make([]int32, n+1)
	}
	e.start = e.start[:n+1]
	s := int32(0)
	for i := 0; i < n; i++ {
		e.start[i] = s
		s += e.cnt[i]
		e.cnt[i] = e.start[i] // becomes the scatter cursor
	}
	e.start[n] = s
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
	clear(e.cnt)
}

// Step executes one synchronous round: every node drains its channel and is
// then activated once. It returns the number of messages delivered.
func (e *SyncEngine) Step() int {
	// Messages sent in the previous round become deliverable now.
	e.seal()
	if e.workers > 1 && len(e.handlers) > 1 {
		return e.stepParallel()
	}
	delivered := int(e.start[len(e.handlers)])
	e.ensureRoundLoad()
	e.obsBuf = e.obsBuf[:0]
	for i := range e.handlers {
		lo, hi := e.start[i], e.start[i+1]
		if lo == hi {
			continue
		}
		id := NodeID(i)
		g := e.group(id)
		ctx := &e.contexts[i]
		for _, env := range e.box[lo:hi] {
			bits := env.msg.Bits()
			e.metrics.observe(g, bits, e.strict)
			if g >= 0 && g < len(e.roundLoad) {
				e.roundLoad[g]++
			}
			if e.observer != nil {
				e.observer(Delivery{Round: e.metrics.Rounds, From: env.from, To: id, Group: g, Bits: bits, Msg: env.msg})
			}
			if e.batchObserver != nil {
				e.obsBuf = append(e.obsBuf, Delivery{Round: e.metrics.Rounds, From: env.from, To: id, Group: g, Bits: bits, Msg: env.msg})
			}
			e.handlers[i].HandleMessage(ctx, env.from, env.msg)
		}
	}
	for i := range e.handlers {
		e.handlers[i].Activate(&e.contexts[i])
	}
	e.finishRound()
	return delivered
}

// finishRound folds the round's load into Congestion, flushes the batched
// observer and advances the round counter. Shared by both stepping modes.
func (e *SyncEngine) finishRound() {
	for _, l := range e.roundLoad {
		if l > e.metrics.Congestion {
			e.metrics.Congestion = l
		}
	}
	if e.batchObserver != nil && len(e.obsBuf) > 0 {
		e.batchObserver(e.obsBuf)
	}
	e.metrics.Rounds++
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

// SetObserver installs a callback invoked for every delivered message
// (in serial mode after metric accounting, before the handler runs; in
// parallel mode at the end of the round, in the same per-round delivery
// order). Observability only — protocols must not depend on it.
func (e *SyncEngine) SetObserver(f func(Delivery)) {
	e.observer = f
}

// SetBatchObserver installs a callback invoked once per round with every
// delivery of that round, in delivery order — the deliveries slice is
// reused across rounds and must not be retained. Batching amortizes the
// per-delivery locking of collectors on the hot path; the delivery order
// seen is identical to SetObserver's. Rounds without deliveries produce no
// callback. Both observers may be installed at once (each sees every
// delivery).
func (e *SyncEngine) SetBatchObserver(f func([]Delivery)) {
	e.batchObserver = f
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
