package sim

import (
	"fmt"
	"reflect"
	"testing"

	"dpq/internal/hashutil"
)

// gossipMsg is a small payload for the sparse-vs-dense stepping tests.
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
// no-op, so the engine skips it unless it is wrapped in dense.
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

// newGossipNode makes node id of a gossip network of n; one node in every
// passiveEvery is passive.
func newGossipNode(id, n, passiveEvery int) *gossipNode {
	return &gossipNode{n: n, passive: id%passiveEvery == passiveEvery-1}
}

// dense hides a handler's Passive method, so the engine activates the
// node every round: a network of dense handlers is stepped densely, the
// reference for the sparse seal and for skipping passive nodes.
type dense struct{ Handler }

// asHandler returns g as the engine sees it: wrapped in dense, or not.
func asHandler(g *gossipNode, denseStep bool) Handler {
	if denseStep {
		return dense{g}
	}
	return g
}

func newGossipNet(n int, seed uint64, passiveEvery int, denseStep bool) (*SyncEngine, []*gossipNode) {
	nodes := make([]*gossipNode, n)
	handlers := make([]Handler, n)
	for i := range nodes {
		nodes[i] = newGossipNode(i, n, passiveEvery)
		handlers[i] = asHandler(nodes[i], denseStep)
	}
	e := newSync(handlers, seed, 0, nil)
	// Seed traffic: a few initial messages from node 0.
	for i := 0; i < n; i++ {
		e.Context(0).Send(NodeID(i%n), gossipMsg{Hop: 6, Val: uint64(i) * 0x9e3779b97f4a7c15})
	}
	return e, nodes
}

// runGossipGrowing runs a gossip network with dynamic membership and
// records its observer stream. The first rounds' traffic dies out, leaving
// rounds in which no node has mail; then 65 nodes join, so the network
// crosses a 64-node boundary, and fresh traffic runs over the grown
// network. quiet counts the rounds that delivered nothing.
func runGossipGrowing(n int, seed uint64, passiveEvery int, denseStep bool, rounds int) (m *Metrics, nodes []*gossipNode, stream []Delivery, quiet int) {
	e, nodes := newGossipNet(n, seed, passiveEvery, denseStep)
	e.SetObserver(func(d Delivery) { stream = append(stream, d) })
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
		nodes = append(nodes, newGossipNode(i, grown, passiveEvery))
		e.AddHandler(asHandler(nodes[i], denseStep), seed)
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
	return e.Metrics(), nodes, stream, quiet
}

// TestSparseMatchesDense checks that skipping passive nodes and sealing
// only the inboxes with mail changes nothing: metrics, protocol state and
// the observer stream are all identical between the sparse run and a
// dense run of the same network, whose handlers hide Passive so every node
// is activated every round. The network has passive nodes (one in every
// 2, 3 or 8), rounds without mail and growth across a 64-node boundary.
func TestSparseMatchesDense(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, every := range []int{2, 3, 8} {
				t.Run(fmt.Sprintf("n=%d/seed=%d/passive=1in%d", n, seed, every), func(t *testing.T) {
					sm, snodes, sstream, quiet := runGossipGrowing(n, seed, every, false, 12)
					if quiet == 0 {
						t.Fatal("no round without mail")
					}
					dm, dnodes, dstream, _ := runGossipGrowing(n, seed, every, true, 12)
					if !reflect.DeepEqual(sm, dm) {
						t.Fatalf("metrics diverge:\nsparse %+v\ndense  %+v", sm, dm)
					}
					for i := range snodes {
						if snodes[i].digest != dnodes[i].digest || snodes[i].seen != dnodes[i].seen {
							t.Fatalf("node %d state diverges: sparse (digest=%x seen=%d) dense (digest=%x seen=%d)",
								i, snodes[i].digest, snodes[i].seen, dnodes[i].digest, dnodes[i].seen)
						}
					}
					if !reflect.DeepEqual(sstream, dstream) {
						t.Fatalf("observer streams diverge: sparse %d deliveries, dense %d", len(sstream), len(dstream))
					}
				})
			}
		}
	}
}

// TestSendUnknownNode checks the bounds panic of a send to a node the
// engine does not have.
func TestSendUnknownNode(t *testing.T) {
	e := newSync([]Handler{badSender{}, &gossipNode{n: 2}}, 1, 0, nil)
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

// TestSerialStepAllocFree checks the steady-state serial round allocates
// nothing once buffers are warm.
func TestSerialStepAllocFree(t *testing.T) {
	e, _ := newGossipNet(32, 5, 3, false)
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
