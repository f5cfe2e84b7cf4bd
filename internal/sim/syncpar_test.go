package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dpq/internal/hashutil"
)

// gossipMsg is a small payload for the parallel-equivalence tests.
type gossipMsg struct {
	Hop int
	Val uint64
}

func (gossipMsg) Kind() string { return "test/gossip" }
func (gossipMsg) Bits() int    { return 72 }

// gossipNode forwards every received value to two pseudo-random targets
// (drawn from its deterministic per-node stream) until the hop budget is
// exhausted, and folds everything it sees into a running digest. The
// traffic pattern exercises fan-out, fan-in and per-node randomness. A
// passive node forwards from HandleMessage and declares its Activate a
// no-op, so the serial engine skips it while the pool activates it.
type gossipNode struct {
	n       int
	passive bool
	digest  uint64
	seen    int
	outbox  []gossipMsg
}

func (g *gossipNode) HandleMessage(ctx *Context, from NodeID, m Message) {
	msg := m.(gossipMsg)
	g.seen++
	g.digest = hashutil.Mix2(g.digest, msg.Val^uint64(from))
	if msg.Hop > 0 {
		g.outbox = append(g.outbox, gossipMsg{Hop: msg.Hop - 1, Val: hashutil.Mix2(msg.Val, uint64(ctx.ID()))})
	}
	if g.passive {
		g.flush(ctx)
	}
}

func (g *gossipNode) Activate(ctx *Context) {
	if !g.passive {
		g.flush(ctx)
	}
}

func (g *gossipNode) Passive() bool { return g.passive }

func (g *gossipNode) flush(ctx *Context) {
	for _, m := range g.outbox {
		ctx.Send(NodeID(ctx.Rand().Intn(g.n)), m)
		ctx.Send(NodeID(ctx.Rand().Intn(g.n)), m)
	}
	g.outbox = g.outbox[:0]
}

// newGossipNode makes node id of a gossip network of n; every third node
// is passive.
func newGossipNode(id, n int) *gossipNode {
	return &gossipNode{n: n, passive: id%3 == 2}
}

func newGossipNet(n int, seed uint64, workers int) (*SyncEngine, []*gossipNode) {
	nodes := make([]*gossipNode, n)
	handlers := make([]Handler, n)
	for i := range nodes {
		nodes[i] = newGossipNode(i, n)
		handlers[i] = nodes[i]
	}
	e := newSync(handlers, seed, 0, nil)
	if workers > 1 {
		e.SetParallel(workers)
	}
	// Seed traffic: a few initial messages from node 0.
	for i := 0; i < n; i++ {
		e.Context(0).Send(NodeID(i%n), gossipMsg{Hop: 6, Val: uint64(i) * 0x9e3779b97f4a7c15})
	}
	return e, nodes
}

func runGossip(n int, seed uint64, workers, rounds int) (*Metrics, []*gossipNode, []Delivery, [][]Delivery) {
	e, nodes := newGossipNet(n, seed, workers)
	var stream []Delivery
	var batches [][]Delivery
	e.SetObserver(func(d Delivery) { stream = append(stream, d) })
	e.SetBatchObserver(func(ds []Delivery) {
		batch := make([]Delivery, len(ds))
		copy(batch, ds)
		batches = append(batches, batch)
	})
	for r := 0; r < rounds; r++ {
		e.Step()
	}
	return e.Metrics(), nodes, stream, batches
}

// runGossipGrowing is runGossip with dynamic membership: the first rounds'
// traffic dies out, leaving rounds in which no node has mail; then 65 nodes
// join, so the network crosses a 64-node boundary, and fresh traffic runs
// over the grown network. quiet counts the rounds that delivered nothing.
func runGossipGrowing(n int, seed uint64, workers, rounds int) (m *Metrics, nodes []*gossipNode, stream []Delivery, batches [][]Delivery, quiet int) {
	e, nodes := newGossipNet(n, seed, workers)
	e.SetObserver(func(d Delivery) { stream = append(stream, d) })
	e.SetBatchObserver(func(ds []Delivery) {
		batches = append(batches, append([]Delivery(nil), ds...))
	})
	step := func() {
		if e.Step() == 0 {
			quiet++
		}
	}
	for r := 0; r < rounds; r++ {
		step()
	}
	grown := n + 65
	for i := n; i < grown; i++ {
		nodes = append(nodes, newGossipNode(i, grown))
		e.AddHandler(nodes[i], seed)
	}
	for _, g := range nodes {
		g.n = grown
	}
	for i := 0; i < grown; i += 5 {
		e.Context(NodeID(i)).Send(NodeID(grown-1-i), gossipMsg{Hop: 4, Val: uint64(i) * 0x9e3779b97f4a7c15})
	}
	for r := 0; r < rounds; r++ {
		step()
	}
	return e.Metrics(), nodes, stream, batches, quiet
}

// TestParallelMatchesSerial checks that metrics, protocol state, the
// per-delivery observer stream and the batched observer stream are all
// identical between serial and parallel stepping across seeds and worker
// counts. The pool path seals densely and activates every node, so it is
// the reference for the serial path's sparse seal and skipped passive
// nodes; the network has passive nodes, rounds without mail and growth
// across a 64-node boundary.
func TestParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			sm, snodes, sstream, sbatches, quiet := runGossipGrowing(n, seed, 1, 12)
			if quiet == 0 {
				t.Fatalf("n=%d seed=%d: no round without mail", n, seed)
			}
			for _, workers := range []int{2, 3, 8} {
				t.Run(fmt.Sprintf("n=%d/seed=%d/w=%d", n, seed, workers), func(t *testing.T) {
					pm, pnodes, pstream, pbatches, _ := runGossipGrowing(n, seed, workers, 12)
					if !reflect.DeepEqual(sm, pm) {
						t.Fatalf("metrics diverge:\nserial   %+v\nparallel %+v", sm, pm)
					}
					for i := range snodes {
						if snodes[i].digest != pnodes[i].digest || snodes[i].seen != pnodes[i].seen {
							t.Fatalf("node %d state diverges: serial (digest=%x seen=%d) parallel (digest=%x seen=%d)",
								i, snodes[i].digest, snodes[i].seen, pnodes[i].digest, pnodes[i].seen)
						}
					}
					if !reflect.DeepEqual(sstream, pstream) {
						t.Fatalf("observer streams diverge: serial %d deliveries, parallel %d", len(sstream), len(pstream))
					}
					if !reflect.DeepEqual(sbatches, pbatches) {
						t.Fatalf("batch observer streams diverge: serial %d rounds, parallel %d", len(sbatches), len(pbatches))
					}
				})
			}
		}
	}
}

// TestBatchObserverMatchesObserver checks that the batched stream is the
// per-delivery stream cut at round boundaries.
func TestBatchObserverMatchesObserver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, _, stream, batches := runGossip(16, 42, workers, 10)
		var flat []Delivery
		for _, b := range batches {
			if len(b) == 0 {
				t.Fatalf("w=%d: empty batch delivered", workers)
			}
			flat = append(flat, b...)
		}
		if !reflect.DeepEqual(stream, flat) {
			t.Fatalf("w=%d: flattened batches differ from observer stream (%d vs %d deliveries)", workers, len(flat), len(stream))
		}
	}
}

// TestParallelStrictPanic checks that the strict out-of-range-group panic
// propagates out of the worker pool with the serial engine's message.
func TestParallelStrictPanic(t *testing.T) {
	nodes := []Handler{&gossipNode{n: 2}, &gossipNode{n: 2}}
	// A group function mapping node 1 out of range of the 1 declared group.
	e := newSync(nodes, 1, 1, func(id NodeID) int { return int(id) })
	e.SetParallel(4)
	e.Context(0).Send(1, gossipMsg{Hop: 0, Val: 7})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected strict-accounting panic")
		}
		want := "sim: delivery to out-of-range congestion group 1 (have 1 groups); AddHandler must grow Deliveries"
		if fmt.Sprint(r) != want {
			t.Fatalf("panic message %q, want %q", r, want)
		}
	}()
	e.Step()
	e.Step()
}

// TestParallelSendUnknownNode checks the bounds panic fires from a
// worker-buffered send too.
func TestParallelSendUnknownNode(t *testing.T) {
	bad := &badSender{}
	e := newSync([]Handler{bad, &gossipNode{n: 2}}, 1, 0, nil)
	e.SetParallel(2)
	defer func() {
		if r := recover(); fmt.Sprint(r) != "sim: send to unknown node" {
			t.Fatalf("panic %v, want send-to-unknown-node", r)
		}
	}()
	e.Step()
}

type badSender struct{}

func (badSender) HandleMessage(*Context, NodeID, Message) {}
func (badSender) Activate(ctx *Context)                   { ctx.Send(99, gossipMsg{}) }

// TestParallelDriverInjection checks that sends issued from a node's
// Context between rounds (workload injection, as core.PQ does) still go
// through the engine after a parallel round restored the binding.
func TestParallelDriverInjection(t *testing.T) {
	e, nodes := newGossipNet(8, 9, 4)
	e.Step()
	e.Context(3).Send(5, gossipMsg{Hop: 0, Val: 1234})
	e.Step()
	total := 0
	for _, nd := range nodes {
		total += nd.seen
	}
	if nodes[5].seen == 0 {
		t.Fatal("injected message was not delivered")
	}
	if got := int(e.Metrics().Messages); got != total {
		t.Fatalf("metrics count %d, nodes saw %d", got, total)
	}
}

// TestSerialStepAllocFree checks the steady-state serial round allocates
// nothing once buffers are warm.
func TestSerialStepAllocFree(t *testing.T) {
	e, _ := newGossipNet(32, 5, 1)
	for r := 0; r < 20; r++ { // warm: traffic dies out after hop budget
		e.Step()
	}
	// Steady state with live traffic: re-seed constant ping-pong.
	const rounds = 100
	allocs := testing.AllocsPerRun(rounds, func() {
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("serial Step allocates %.1f objects/round in quiescent steady state", allocs)
	}
}

// TestWorkersConvention pins the one worker-count convention (Spec.Workers,
// SetParallel) and PoolWorkers' translation into it.
func TestWorkersConvention(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	for workers, want := range map[int]int{0: 1, 1: 1, 3: 3, -1: cores} {
		e := Build(Spec{Handlers: newPingPair(), Workers: workers}).(*SyncEngine)
		if got := e.Workers(); got != want {
			t.Errorf("Spec.Workers %d: %d workers, want %d", workers, got, want)
		}
	}
	for pool, want := range map[int]int{0: -1, 1: 1, 3: 3, -2: -2} {
		if got := PoolWorkers(pool); got != want {
			t.Errorf("PoolWorkers(%d) = %d, want %d", pool, got, want)
		}
	}
}
