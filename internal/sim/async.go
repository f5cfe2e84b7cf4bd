package sim

import "dpq/internal/hashutil"

// AsyncEngine drives handlers in the fully asynchronous model of §1.1:
// message propagation delays are arbitrary (seeded-random) and delivery is
// non-FIFO, but receipt is fair — every message is eventually processed.
// Nodes are activated periodically with randomly jittered spacing, modeling
// unbounded relative execution speeds.
//
// The engine is deterministic for a fixed seed, which makes adversarial
// semantics tests reproducible. Rounds and congestion have no exact meaning
// in this model; the engine approximates them by unit-sim-time windows
// (see noteWindow) and counts messages and bits exactly.
//
// An optional FaultPlan (SetFaultPlan) weakens the model beyond §1.1:
// messages may be dropped, duplicated or delay-spiked and nodes may crash
// and restart. Protocols survive such runs by wrapping their handlers in a
// ReliableTransport; the plan stays deterministic per seed and records a
// replayable trace of every injected fault.
type AsyncEngine struct {
	handlers []Handler
	// contexts/rands are flat per-node value arrays (contexts[i].rand
	// points at rands[i]); see the SyncEngine layout notes. Context
	// pointers are invalidated by AddHandler.
	contexts []Context
	rands    []hashutil.Rand
	group    func(NodeID) int
	nGrp     int

	events   minHeap[event]
	now      float64
	seq      int64
	rand     *hashutil.Rand
	pending  int // message deliveries scheduled but not yet processed
	metrics  Metrics
	maxDelay float64
	faults   *FaultPlan

	observer func(Delivery)
	strict   bool
	// Rounds/congestion approximation: deliveries inside one unit of
	// sim-time (≈ one activation period) form a window; winLoad counts the
	// current window's per-group deliveries.
	window  int
	winLoad []int
}

type event struct {
	time float64
	seq  int64
	// kind: delivery when msg != nil, activation otherwise.
	node NodeID
	from NodeID
	msg  Message
}

func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// newAsync creates an asynchronous engine. maxDelay bounds the random
// delivery delay of each message (delays are uniform in (0, maxDelay]; 0
// defaults to 1.0); any positive value preserves the "arbitrary finite
// delay" model while keeping runs finite.
func newAsync(handlers []Handler, seed uint64, maxDelay float64, groups int, group func(NodeID) int) *AsyncEngine {
	if maxDelay == 0 {
		maxDelay = 1.0
	}
	n := len(handlers)
	if group == nil {
		groups = n
		group = func(id NodeID) int { return int(id) }
	}
	e := &AsyncEngine{
		handlers: handlers,
		contexts: make([]Context, n),
		rands:    make([]hashutil.Rand, n),
		group:    group,
		nGrp:     groups,
		events:   newMinHeap(eventLess),
		rand:     hashutil.NewRand(seed),
		maxDelay: maxDelay,
		strict:   strictDefault(),
		winLoad:  make([]int, groups),
	}
	e.metrics.Deliveries = make([]int64, groups)
	for i := range handlers {
		// The engine PRNG interleaves fork draws with activation jitter, so
		// the chain must stay sequential (unlike the sync engine's O(1)
		// ForkSeedAt derivation); only the storage is flattened.
		e.rands[i] = *e.rand.Fork()
		e.contexts[i] = Context{id: NodeID(i), rand: &e.rands[i], engine: e}
		e.scheduleActivation(NodeID(i))
	}
	return e
}

// SetFaultPlan installs a fault plan consulted on every send and node
// activation. It must be set before the first RunUntil; nil disables fault
// injection (the default §1.1 model).
func (e *AsyncEngine) SetFaultPlan(p *FaultPlan) { e.faults = p }

// SetObserver installs a callback invoked for every delivered message
// (after metric accounting, before the handler runs). Crash-suppressed
// deliveries are not observed — they are counted in Metrics.LostToCrash.
func (e *AsyncEngine) SetObserver(f func(Delivery)) { e.observer = f }

// SetStrictAccounting overrides the strict-mode default (panic on an
// out-of-range congestion group under `go test`, count into
// Metrics.Dropped otherwise).
func (e *AsyncEngine) SetStrictAccounting(on bool) { e.strict = on }

// AddHandler grows the network by one node (dynamic membership), growing
// the congestion-group accounting alongside, and schedules the new node's
// periodic activations. It returns the new node's id. Growth re-points the
// flat context array: *Context pointers obtained before AddHandler must be
// re-fetched.
func (e *AsyncEngine) AddHandler(h Handler, seed uint64) NodeID {
	id := NodeID(len(e.handlers))
	e.handlers = append(e.handlers, h)
	e.rands = append(e.rands, *hashutil.NewRand(hashutil.Mix2(seed, uint64(id))))
	e.contexts = append(e.contexts, Context{id: id, engine: e})
	for i := range e.contexts {
		e.contexts[i].rand = &e.rands[i]
	}
	if g := e.group(id); g >= e.nGrp {
		e.nGrp = g + 1
	}
	for len(e.metrics.Deliveries) < e.nGrp {
		e.metrics.Deliveries = append(e.metrics.Deliveries, 0)
	}
	for len(e.winLoad) < e.nGrp {
		e.winLoad = append(e.winLoad, 0)
	}
	e.scheduleActivation(id)
	return id
}

// Faults returns the installed fault plan (nil when fault-free).
func (e *AsyncEngine) Faults() *FaultPlan { return e.faults }

func (e *AsyncEngine) send(from, to NodeID, msg Message) {
	if int(to) < 0 || int(to) >= len(e.handlers) {
		panic("sim: send to unknown node")
	}
	e.seq++
	seq := e.seq
	delay := e.rand.Float64()*e.maxDelay + 1e-9
	if e.faults != nil {
		d := e.faults.decideSend(seq, to)
		if d.drop {
			return // the message is lost in transit
		}
		if d.delayFactor > 1 {
			delay *= d.delayFactor
		}
		if d.dup {
			// The duplicate travels independently, with its own delay.
			e.seq++
			dupDelay := e.rand.Float64()*e.maxDelay + 1e-9
			e.events.Push(event{time: e.now + dupDelay, seq: e.seq, node: to, from: from, msg: msg})
			e.pending++
		}
	}
	e.events.Push(event{time: e.now + delay, seq: seq, node: to, from: from, msg: msg})
	e.pending++
}

func (e *AsyncEngine) scheduleActivation(id NodeID) {
	e.seq++
	delay := 0.5 + e.rand.Float64() // jittered node speeds
	e.events.Push(event{time: e.now + delay, seq: e.seq, node: id})
}

// RunUntil processes events until done() holds or maxEvents events have
// been processed. It returns whether completion was reached. Messages may
// still be in flight when done() fires — protocols that keep the network
// busy (e.g. Skeap's continuous iterations) never quiesce; done should be
// phrased in terms of protocol state.
func (e *AsyncEngine) RunUntil(done func() bool, maxEvents int) bool {
	for processed := 0; processed < maxEvents; processed++ {
		if done() {
			return true
		}
		if e.events.Len() == 0 {
			return done()
		}
		ev := e.events.Pop()
		e.now = ev.time
		if ev.msg != nil {
			e.pending--
			if e.faults != nil && e.faults.down(ev.node, e.now) {
				// Deliveries to a crashed node are lost; record the loss so
				// fault assertions can tell it from "never sent".
				e.metrics.LostToCrash++
				continue
			}
			g := e.group(ev.node)
			bits := ev.msg.Bits()
			e.metrics.observe(g, bits, e.strict)
			e.noteWindow(g)
			if e.observer != nil {
				e.observer(Delivery{Round: e.window, Time: e.now, From: ev.from, To: ev.node, Group: g, Bits: bits, Msg: ev.msg})
			}
			e.handlers[ev.node].HandleMessage(&e.contexts[ev.node], ev.from, ev.msg)
		} else {
			if e.faults != nil {
				e.faults.decideActivation(ev.seq, ev.node, e.now)
				if e.faults.down(ev.node, e.now) {
					e.scheduleActivation(ev.node) // the node sleeps through the crash
					continue
				}
			}
			e.handlers[ev.node].Activate(&e.contexts[ev.node])
			e.scheduleActivation(ev.node)
		}
	}
	return done()
}

// noteWindow attributes one delivery for group g to the current unit-time
// window, maintaining the round/congestion approximation: Rounds is the
// number of elapsed windows and Congestion the maximum per-group load of
// any single window. Activation spacing is ≈1 sim-time unit, so a window
// approximates one synchronous round.
func (e *AsyncEngine) noteWindow(g int) {
	if w := int(e.now); w != e.window {
		e.window = w
		for i := range e.winLoad {
			e.winLoad[i] = 0
		}
	}
	e.metrics.Rounds = e.window + 1
	if g < 0 || g >= len(e.winLoad) {
		return
	}
	e.winLoad[g]++
	if e.winLoad[g] > e.metrics.Congestion {
		e.metrics.Congestion = e.winLoad[g]
	}
}

// Metrics returns the accumulated cost measures. Rounds and Congestion are
// approximated by unit-sim-time windows (one activation period ≈ one
// synchronous round); exact round accounting needs the SyncEngine.
func (e *AsyncEngine) Metrics() *Metrics { return &e.metrics }

// Context returns node id's context, for injecting initial actions. The
// pointer is into a flat array: it is valid until the next AddHandler.
func (e *AsyncEngine) Context(id NodeID) *Context { return &e.contexts[id] }
