// Package netrun runs sim.Handler networks over real TCP connections: the
// virtual nodes of one network are partitioned among one or more OS
// processes, and every cross-process Send is encoded with internal/wire and
// carried in a length-prefixed frame. Handlers are the exact objects the
// in-memory engines drive — communication-closed-rounds theory
// (arXiv:1804.07078) is what licenses running the round-structured
// protocols on an asynchronous wire unchanged.
//
// Reliability. Every link is the channel of the paper's model (§1.1):
// messages are never lost or duplicated. Between two nodes of one process
// that is an in-process queue. Between two processes it is the peer session
// (conn.go): the sender counts its frames and keeps what it has written
// until the receiver's cumulative acknowledgement — piggy-backed on the
// reverse direction's writes or on the heartbeat — covers it, every
// reconnect replays from the first unacknowledged frame, and the receiver
// drops what it already has. Handlers therefore run bare: the engine
// answers sim.LosslessSender with true for every link, so a network that is
// wrapped in sim.ReliableTransport anyway sends bare as well. What a session
// cannot give is a process that outlives its state: across a restart of the
// receiver the unacknowledged tail is delivered at least once, and a
// restarted sender starts a new stream (Config.OnPeerRejoin reports both).
//
// Threads and queues. One run goroutine executes every handler upcall and
// detector callback. The contexts it hands to handlers append local sends
// to a queue only that goroutine touches — no lock, no wake-up — and
// remote sends to the destination peer's frame buffer, whose writer is
// woken once per delivery pass, not once per frame. Engine.Send is the
// door for every other goroutine: it takes the inbox lock (local) or the
// peer lock plus an immediate wake-up (remote). Each inbound connection
// has a reader goroutine that decodes everything one buffered read
// delivered and enqueues it under a single inbox lock acquisition. A
// healthy link costs no frame, write or wake-up beyond its payloads'.
//
// Model mapping. The engine has no global rounds; instead every process
// counts local activation ticks: one Activate per Config.Tick of every
// local handler that is not passive (sim.PassiveHandler), and of each
// passive one that asked for it (sim.WakeableHandler). A tick with nothing
// to activate is skipped, so a process whose nodes are all passive and
// unwoken does not tick at all. A delivery's Delivery.Round is the
// *sender's* tick when the message was sent, so traces taken on one
// process are round-monotone per sending node (TCP is FIFO per
// connection) but not globally — exactly the per-node monotonicity
// cmd/tracecheck verifies for netrun traces. Metrics.Rounds counts local
// ticks and congestion windows run from tick to tick, making the numbers
// comparable with the simulators' per-round accounting.
package netrun

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dpq/internal/hashutil"
	"dpq/internal/sim"
)

// Config describes one process's share of a network.
type Config struct {
	// Proc is this process's index in Addrs.
	Proc int
	// Addrs lists every process's listen address, indexed by process.
	Addrs []string
	// Listener, when non-nil, is the pre-bound listener to use instead of
	// listening on Addrs[Proc] — tests bind ":0" and exchange the real
	// addresses before building configs.
	Listener net.Listener
	// Handlers is the whole network's handler slice (index = sim.NodeID).
	// Only the handlers this process owns are ever run; the others may be
	// inert copies or nil.
	Handlers []sim.Handler
	// Owner maps a node to the process that runs it. nil means process 0
	// owns everything (single-process deployment).
	Owner func(sim.NodeID) int
	// Seed derives the per-node PRNG streams.
	Seed uint64
	// Groups/Group define congestion accounting like the sim engines; nil
	// Group means identity.
	Groups int
	Group  func(sim.NodeID) int
	// Tick is the activation period (default 1ms): the pacing of
	// activations while there are nodes to activate.
	Tick time.Duration
	// Observer, when set, sees every local delivery (after accounting,
	// before the handler runs) — wire it to obs exactly like a simulator.
	Observer func(sim.Delivery)
	// Strict panics on out-of-range congestion groups (tests); the default
	// counts them into Metrics.Dropped.
	Strict bool
	// DialBackoffMin/Max bound the per-peer reconnect backoff
	// (defaults 10ms and 1s).
	DialBackoffMin time.Duration
	DialBackoffMax time.Duration
	// HeartbeatEvery enables the failure detector: each peer gets a
	// control frame per period (when its buffer is idle) and is graded
	// up/suspect/down by inbound-frame recency. 0 disables the detector
	// (single-process engines never need it); the acknowledgements of an
	// idle direction then go out from the tick loop instead, at most one per
	// tick and only when there is something new to acknowledge.
	HeartbeatEvery time.Duration
	// SuspectAfter/DownAfter are the detector's staleness thresholds
	// (defaults 4× and 10× HeartbeatEvery).
	SuspectAfter time.Duration
	DownAfter    time.Duration
	// OnPeerState fires on every detector transition; OnPeerRejoin fires
	// when an inbound handshake shows a peer restarted (new incarnation),
	// before any frame of its new stream is delivered. Both run on the
	// engine's handler goroutine, so they may touch handler state directly.
	OnPeerState  func(proc int, state PeerState)
	OnPeerRejoin func(proc int)
	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// inEnv is one message awaiting local delivery.
type inEnv struct {
	from       sim.NodeID
	to         sim.NodeID
	senderTick int64
	msg        sim.Message
}

// recycleEnvCap is the largest envelope buffer a drained queue keeps for
// reuse; a burst beyond it is dropped for the GC so it cannot pin memory.
const recycleEnvCap = 1 << 16

// Engine is a sim-compatible engine for one process of a network.
type Engine struct {
	cfg      Config
	ln       net.Listener
	localIDs []sim.NodeID
	ctxs     []*sim.Context // by node id; nil for nodes owned elsewhere

	// Owned by the run goroutine. local collects the handlers' own local
	// sends and is delivered a generation at a time; the spares are the
	// drained buffers of the previous pass, swapped back in instead of
	// reallocating. dirty lists the peers that were handed frames since the
	// last flushPeers. acc is the authoritative cost accounting, published
	// to metrics once per pass.
	local      []inEnv
	localSpare []inEnv
	inboxSpare []inEnv
	dirty      []*peer
	acc        sim.Metrics
	tickLoad   []int // per-group deliveries in the current tick window

	mu     sync.Mutex // guards inbox, ctl and woken
	inbox  []inEnv    // sends from other goroutines and inbound frames
	ctl    []func()   // detector callbacks awaiting the run goroutine
	woken  []sim.NodeID
	notify chan struct{}

	// active lists the local nodes whose handler is not passive: the nodes
	// every tick activates. woken (under mu) lists the passive ones that
	// asked for an activation at the next tick; wokenSpare is the run
	// goroutine's other buffer for it.
	active     []sim.NodeID
	wokenSpare []sim.NodeID

	peers []*peer // by process; nil at Proc

	// incarnation identifies this engine lifetime in handshakes; healthMu
	// guards the failure detector's per-peer records, down counts the peers
	// they currently grade down.
	incarnation uint64
	healthMu    sync.Mutex
	health      map[int]*healthRec
	down        atomic.Int32

	connMu sync.Mutex // guards inbound conns for shutdown
	conns  map[net.Conn]bool

	statsMu sync.Mutex  // guards metrics
	metrics sim.Metrics // acc as of the end of the last pass

	tick atomic.Int64 // local activation ticks; written by the run goroutine

	start    time.Time
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	started  bool
}

// handlerSender is the sim.Sender behind the contexts handed to handlers:
// the run goroutine's private, lock-free way into the engine. It also
// answers the reliable transport's lossless query (sim.LosslessSender).
type handlerSender struct{ e *Engine }

// Lossless vouches for every link: an in-process queue cannot lose, and a
// cross-process link is a session that replays what a connection reset
// lost and drops what it duplicated.
func (handlerSender) Lossless(from, to sim.NodeID) bool { return true }

// Send queues a local destination for the next delivery generation and
// frames a remote one into its peer's buffer, to be flushed at the end of
// the current pass. Run goroutine only.
func (s handlerSender) Send(from, to sim.NodeID, msg sim.Message) {
	e := s.e
	p := e.route(to)
	if p == nil {
		e.local = append(e.local, inEnv{from: from, to: to, senderTick: e.tick.Load(), msg: msg})
		return
	}
	p.enqueueMsg(from, to, e.tick.Load(), msg)
	if !p.dirty {
		p.dirty = true
		e.dirty = append(e.dirty, p)
	}
}

// New validates cfg, binds the listener and prepares the local contexts.
// The engine is inert until Start.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("netrun: no process addresses")
	}
	if cfg.Proc < 0 || cfg.Proc >= len(cfg.Addrs) {
		return nil, fmt.Errorf("netrun: proc %d out of range for %d processes", cfg.Proc, len(cfg.Addrs))
	}
	if len(cfg.Handlers) == 0 {
		return nil, fmt.Errorf("netrun: no handlers")
	}
	if cfg.Owner == nil {
		cfg.Owner = func(sim.NodeID) int { return 0 }
	}
	if cfg.Group == nil {
		cfg.Groups = len(cfg.Handlers)
		cfg.Group = func(id sim.NodeID) int { return int(id) }
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	if cfg.DialBackoffMin <= 0 {
		cfg.DialBackoffMin = 10 * time.Millisecond
	}
	if cfg.DialBackoffMax < cfg.DialBackoffMin {
		cfg.DialBackoffMax = time.Second
	}
	if cfg.HeartbeatEvery > 0 {
		if cfg.SuspectAfter <= 0 {
			cfg.SuspectAfter = 4 * cfg.HeartbeatEvery
		}
		if cfg.DownAfter <= cfg.SuspectAfter {
			cfg.DownAfter = 10 * cfg.HeartbeatEvery
		}
		if cfg.DownAfter <= cfg.SuspectAfter {
			cfg.DownAfter = 2 * cfg.SuspectAfter
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	e := &Engine{
		cfg:         cfg,
		ctxs:        make([]*sim.Context, len(cfg.Handlers)),
		notify:      make(chan struct{}, 1),
		peers:       make([]*peer, len(cfg.Addrs)),
		conns:       make(map[net.Conn]bool),
		stop:        make(chan struct{}),
		incarnation: uint64(time.Now().UnixNano()),
	}
	e.acc.Deliveries = make([]int64, cfg.Groups)
	e.metrics.Deliveries = make([]int64, cfg.Groups)
	e.tickLoad = make([]int, cfg.Groups)
	for i := range cfg.Handlers {
		id := sim.NodeID(i)
		if cfg.Owner(id) != cfg.Proc {
			continue
		}
		if cfg.Handlers[i] == nil {
			return nil, fmt.Errorf("netrun: node %d is owned here but has no handler", i)
		}
		e.localIDs = append(e.localIDs, id)
		rnd := hashutil.NewRand(hashutil.Mix2(cfg.Seed, uint64(id)))
		e.ctxs[id] = sim.NewExternalContext(id, rnd, handlerSender{e})
		if p, ok := cfg.Handlers[i].(sim.PassiveHandler); !ok || !p.Passive() {
			e.active = append(e.active, id)
		}
	}
	if len(e.localIDs) == 0 {
		return nil, fmt.Errorf("netrun: process %d owns no nodes", cfg.Proc)
	}
	for _, id := range e.localIDs {
		if w, ok := cfg.Handlers[id].(sim.WakeableHandler); ok {
			w.SetWake(e.wake)
		}
	}

	ln := cfg.Listener
	if ln == nil && len(cfg.Addrs) > 1 {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Proc])
		if err != nil {
			return nil, fmt.Errorf("netrun: listen: %w", err)
		}
	}
	e.ln = ln

	for p := range cfg.Addrs {
		if p != cfg.Proc {
			// The backoff seed is per ordered process pair, so the redial
			// schedules of distinct peers diverge (jitter) while a fixed
			// Config.Seed keeps each schedule reproducible.
			boSeed := hashutil.Mix2(hashutil.Mix2(cfg.Seed, uint64(cfg.Proc)+1), uint64(p)+1)
			e.peers[p] = newPeer(p, cfg.Addrs[p], cfg.DialBackoffMin, cfg.DialBackoffMax, boSeed)
		}
	}
	e.initHealth()
	return e, nil
}

// Addr returns the engine's bound listen address ("" for a single-process
// engine with no listener).
func (e *Engine) Addr() string {
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// LocalNodes returns the node ids this process runs.
func (e *Engine) LocalNodes() []sim.NodeID {
	return append([]sim.NodeID(nil), e.localIDs...)
}

// Start launches the accept loop, the peer writers and the activation loop.
func (e *Engine) Start() {
	if e.started {
		panic("netrun: Start called twice")
	}
	e.started = true
	e.start = time.Now()
	if e.ln != nil {
		e.wg.Add(1)
		go e.acceptLoop()
	}
	for _, p := range e.peers {
		if p != nil {
			e.wg.Add(1)
			go p.run(e)
		}
	}
	if e.cfg.HeartbeatEvery > 0 && len(e.peers) > 1 {
		e.wg.Add(1)
		go e.monitor()
	}
	e.wg.Add(1)
	go e.run()
}

// route returns the peer that owns node to, or nil when it is local.
func (e *Engine) route(to sim.NodeID) *peer {
	if int(to) < 0 || int(to) >= len(e.cfg.Handlers) {
		panic("netrun: send to unknown node")
	}
	owner := e.cfg.Owner(to)
	if owner == e.cfg.Proc {
		return nil
	}
	if owner < 0 || owner >= len(e.peers) {
		panic(fmt.Sprintf("netrun: node %d owned by unknown process %d", to, owner))
	}
	return e.peers[owner]
}

// Send implements sim.Sender for drivers on any goroutine: a local
// destination goes through the locked inbox, a remote one is framed into
// its peer's buffer and the writer is woken at once. Handlers do not come
// through here — their contexts send through handlerSender.
func (e *Engine) Send(from, to sim.NodeID, msg sim.Message) {
	p := e.route(to)
	if p == nil {
		e.enqueue([]inEnv{{from: from, to: to, senderTick: e.tick.Load(), msg: msg}})
		return
	}
	p.enqueueMsg(from, to, e.tick.Load(), msg)
	p.cond.Signal()
}

// enqueue appends envelopes to the inbox and pokes the run goroutine.
func (e *Engine) enqueue(envs []inEnv) {
	e.mu.Lock()
	e.inbox = append(e.inbox, envs...)
	e.mu.Unlock()
	e.poke()
}

func (e *Engine) poke() {
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// run is the single goroutine that executes handlers: deliveries as they
// arrive, one activation of the local nodes that need it per tick. The
// tick timer behaves like a time.Ticker of period Config.Tick — a tick
// falls on each boundary, and one that passed while the goroutine was busy
// fires as soon as it is free — except that it is armed only while some
// node needs activating. A process whose nodes are all passive and unwoken
// sleeps until a delivery, a wake or the stop.
func (e *Engine) run() {
	defer e.wg.Done()
	period, origin := e.cfg.Tick, time.Now()
	boundary := int64(1) // the boundary the armed (or last fired) tick stands for
	timer := time.NewTimer(period)
	defer timer.Stop()
	tick := timer.C
	for {
		select {
		case <-e.stop:
			return
		case <-e.notify:
			e.drain()
		case <-tick:
			tick = nil
			e.drain()
			e.activate()
			e.flushPeers()
			e.closeTickWindow()
			e.drain() // what the activations sent locally
			if e.cfg.HeartbeatEvery == 0 {
				for _, p := range e.peers {
					if p != nil {
						p.tickOffer()
					}
				}
			}
		}
		if tick == nil && !e.idle() {
			now := time.Since(origin)
			first := int64(now/period) + 1 // the first boundary after now
			if first > boundary+1 {
				// A boundary passed since the last tick: fire now for it.
				boundary = first - 1
				timer.Reset(0)
			} else {
				boundary = first
				timer.Reset(time.Duration(first)*period - now)
			}
			tick = timer.C
		}
	}
}

// wake asks for one activation of node id at the next tick
// (sim.WakeableHandler). Safe from any goroutine.
func (e *Engine) wake(id sim.NodeID) {
	e.mu.Lock()
	e.woken = append(e.woken, id)
	e.mu.Unlock()
	e.poke()
}

// activate runs one tick's activations: every active node, then every
// woken passive one once. The woken list is double-buffered, so a wake
// raised by an activation lands in the other buffer, for the next tick.
func (e *Engine) activate() {
	for _, id := range e.active {
		e.cfg.Handlers[id].Activate(e.ctxs[id])
	}
	e.mu.Lock()
	woken := e.woken
	e.woken = e.wokenSpare
	e.mu.Unlock()
	slices.Sort(woken)
	for _, id := range slices.Compact(woken) {
		if !slices.Contains(e.active, id) {
			e.cfg.Handlers[id].Activate(e.ctxs[id])
		}
	}
	e.wokenSpare = woken[:0]
}

// idle reports whether no tick is needed: no node to activate, and no
// idle link that only the tick loop would acknowledge.
func (e *Engine) idle() bool {
	if len(e.active) > 0 || e.cfg.HeartbeatEvery == 0 && len(e.peers) > 1 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.woken) == 0
}

// pushCtl schedules f on the run goroutine (detector callbacks run where
// handlers run, so they may touch handler-owned state).
func (e *Engine) pushCtl(f func()) {
	e.mu.Lock()
	e.ctl = append(e.ctl, f)
	e.mu.Unlock()
	e.poke()
}

// drain runs delivery passes until nothing is queued. One pass takes the
// control queue, the inbox and the current generation of handler sends,
// runs them, publishes the accounting and wakes the writers of the peers
// the pass sent to; what its handlers sent locally is the next pass's
// generation.
func (e *Engine) drain() {
	for {
		e.mu.Lock()
		box, ctl := e.inbox, e.ctl
		e.inbox, e.ctl = e.inboxSpare, nil
		e.mu.Unlock()
		gen := e.local
		if len(box) == 0 && len(ctl) == 0 && len(gen) == 0 {
			e.inboxSpare = box
			return
		}
		e.local = e.localSpare
		for _, f := range ctl {
			f()
		}
		for i := range box {
			e.deliver(&box[i])
		}
		for i := range gen {
			e.deliver(&gen[i])
		}
		e.inboxSpare = recycleEnvs(box)
		e.localSpare = recycleEnvs(gen)
		e.publish()
		e.flushPeers()
	}
}

// recycleEnvs empties a delivered buffer for reuse, releasing its message
// references.
func recycleEnvs(b []inEnv) []inEnv {
	if cap(b) > recycleEnvCap {
		return nil
	}
	clear(b)
	return b[:0]
}

// deliver accounts one message and hands it to its handler.
func (e *Engine) deliver(env *inEnv) {
	if int(env.to) < 0 || int(env.to) >= len(e.ctxs) || e.ctxs[env.to] == nil {
		e.cfg.Logf("netrun: dropping frame for non-local node %d", env.to)
		return
	}
	g := e.cfg.Group(env.to)
	bits := env.msg.Bits()
	e.acc.Observe(g, bits, e.cfg.Strict)
	if g >= 0 && g < len(e.tickLoad) {
		e.tickLoad[g]++
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer(sim.Delivery{
			Round: int(env.senderTick),
			Time:  time.Since(e.start).Seconds(),
			From:  env.from,
			To:    env.to,
			Group: g,
			Bits:  bits,
			Msg:   env.msg,
		})
	}
	e.cfg.Handlers[env.to].HandleMessage(e.ctxs[env.to], env.from, env.msg)
}

// flushPeers wakes the writer of every peer handed frames since the last
// call.
func (e *Engine) flushPeers() {
	for i, p := range e.dirty {
		p.dirty = false
		p.cond.Signal()
		e.dirty[i] = nil
	}
	e.dirty = e.dirty[:0]
}

// publish copies the run goroutine's accounting to where Metrics reads it.
func (e *Engine) publish() {
	e.statsMu.Lock()
	d := e.metrics.Deliveries
	copy(d, e.acc.Deliveries)
	e.metrics = e.acc
	e.metrics.Deliveries = d
	e.statsMu.Unlock()
}

// closeTickWindow ends one congestion window and advances the local tick.
func (e *Engine) closeTickWindow() {
	for g, l := range e.tickLoad {
		if l > e.acc.Congestion {
			e.acc.Congestion = l
		}
		e.tickLoad[g] = 0
	}
	e.acc.Rounds = int(e.tick.Add(1))
	e.publish()
}

// Metrics returns a snapshot of the engine's cost accounting.
func (e *Engine) Metrics() sim.Metrics {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	m := e.metrics
	m.Deliveries = append([]int64(nil), e.metrics.Deliveries...)
	return m
}

// Links totals the session counters of every peer link (per peer:
// Health).
func (e *Engine) Links() LinkStats {
	var s LinkStats
	for _, p := range e.peers {
		if p != nil {
			s.add(p.stats())
		}
	}
	return s
}

// Close shuts the engine down: the activation loop stops, peers flush
// queued frames (bounded by flushTimeout, not waiting for their
// acknowledgement) and all connections close.
func (e *Engine) Close() error {
	e.stopOnce.Do(func() {
		close(e.stop)
		if e.ln != nil {
			e.ln.Close()
		}
		for _, p := range e.peers {
			if p != nil {
				p.close()
			}
		}
		e.connMu.Lock()
		for c := range e.conns {
			c.Close()
		}
		e.connMu.Unlock()
	})
	e.wg.Wait()
	return nil
}
