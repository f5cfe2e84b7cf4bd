package netrun

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpq/internal/sim"
)

// streamNode is the node of the queue tests. As a sender it emits, per
// activation, a burst of numbered messages to each of its destinations; as
// a receiver it requires every (from → me) stream to arrive as 1, 2, 3, …:
// any loss, duplicate or overtaking breaks the count. Receiver state is
// only touched on the engine's run goroutine and read after Close.
type streamNode struct {
	dests []sim.NodeID
	burst int
	limit int64
	next  map[sim.NodeID]int64
	sent  atomic.Int64 // messages handed to the context so far
	echo  bool         // send every message straight back

	last map[sim.NodeID]int64
	bad  []string
	got  atomic.Int64
}

func (n *streamNode) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	seq := msg.(*pingMsg).Seq
	if n.last == nil {
		n.last = map[sim.NodeID]int64{}
	}
	if seq != n.last[from]+1 && len(n.bad) < 5 {
		n.bad = append(n.bad, fmt.Sprintf("from %d: %d after %d", from, seq, n.last[from]))
	}
	n.last[from] = seq
	n.got.Add(1)
	if n.echo {
		ctx.Send(from, msg)
	}
}

func (n *streamNode) Activate(ctx *sim.Context) {
	for _, to := range n.dests {
		for i := 0; i < n.burst && n.next[to] < n.limit; i++ {
			n.next[to]++
			ctx.Send(to, &pingMsg{Seq: n.next[to]})
			n.sent.Add(1)
		}
	}
}

// TestQueuesUnderConcurrentTraffic loads all three ways into an engine at
// once — handler sends through the run goroutine's private queue, four
// driver goroutines through Engine.Send, and inbound peer frames — on both
// local and cross-process links, and checks exactly-once, per-(from,to)
// FIFO delivery of every stream. Run it under -race.
func TestQueuesUnderConcurrentTraffic(t *testing.T) {
	const (
		perStream = 3000
		drivers   = 4
	)
	// Nodes 0,1 live on process 0 and 2,3 on process 1; 4..7 are the
	// identities the driver goroutines send under (owned by process 0,
	// never addressed).
	owner := func(id sim.NodeID) int {
		if id == 2 || id == 3 {
			return 1
		}
		return 0
	}
	sender := func(dests ...sim.NodeID) *streamNode {
		return &streamNode{dests: dests, burst: 40, limit: perStream, next: map[sim.NodeID]int64{}}
	}
	nodes := []*streamNode{
		sender(1, 3), // 0: local and remote handler sends
		{},           // 1: sink on process 0
		sender(1, 3), // 2: inbound frames for process 0, local sends on 1
		{},           // 3: sink on process 1
		{}, {}, {}, {},
	}
	handlers := make([]sim.Handler, len(nodes))
	for i, n := range nodes {
		handlers[i] = n
	}
	lns, addrs := bindLoopback(t, 2)
	engines := make([]*Engine, 2)
	for p := range engines {
		eng, err := New(Config{
			Proc: p, Addrs: addrs, Listener: lns[p],
			Handlers: handlers, Owner: owner,
			Seed: 1, Tick: 200 * time.Microsecond, Strict: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[p] = eng
		defer eng.Close()
	}
	for _, e := range engines {
		e.Start()
	}
	var wg sync.WaitGroup
	for g := 0; g < drivers; g++ {
		wg.Add(1)
		go func(from sim.NodeID) {
			defer wg.Done()
			for seq := int64(1); seq <= perStream; seq++ {
				engines[0].Send(from, 1, &pingMsg{Seq: seq})
				engines[0].Send(from, 3, &pingMsg{Seq: seq})
			}
		}(sim.NodeID(4 + g))
	}
	wg.Wait()
	const perSink = (2 + drivers) * perStream
	waitFor(t, 30*time.Second, "every stream to arrive", func() bool {
		return nodes[1].got.Load() >= perSink && nodes[3].got.Load() >= perSink
	})
	for _, e := range engines {
		e.Close()
	}
	for _, sink := range []int{1, 3} {
		n := nodes[sink]
		if len(n.bad) > 0 {
			t.Fatalf("node %d: stream out of order: %v", sink, n.bad)
		}
		if n.got.Load() != perSink || len(n.last) != 2+drivers {
			t.Fatalf("node %d: %d messages over %d streams, want %d over %d", sink, n.got.Load(), len(n.last), perSink, 2+drivers)
		}
		for from, last := range n.last {
			if last != perStream {
				t.Fatalf("node %d: stream from %d ended at %d, want %d", sink, from, last, perStream)
			}
		}
	}
	if m := engines[0].Metrics(); m.Messages != perSink {
		t.Fatalf("process 0 accounted %d deliveries, want %d", m.Messages, perSink)
	}
}

// TestCloseDuringTraffic closes an engine whose handlers are in the middle
// of streaming to a peer. Close must return, and everything handed to the
// peer's buffer before Close was called must still reach the other side,
// in order — including frames the run goroutine had queued but not yet
// woken the writer for.
func TestCloseDuringTraffic(t *testing.T) {
	for round := 0; round < 5; round++ {
		src := &streamNode{dests: []sim.NodeID{1}, burst: 200, limit: 1 << 40, next: map[sim.NodeID]int64{}}
		sink := &streamNode{}
		handlers := []sim.Handler{src, sink}
		lns, addrs := bindLoopback(t, 2)
		engines := make([]*Engine, 2)
		for p := range engines {
			eng, err := New(Config{
				Proc: p, Addrs: addrs, Listener: lns[p],
				Handlers: handlers, Owner: func(id sim.NodeID) int { return int(id) },
				Seed: 1, Tick: 100 * time.Microsecond, Strict: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			engines[p] = eng
			eng.Start()
		}
		waitFor(t, 10*time.Second, "traffic to flow", func() bool { return sink.got.Load() > 1000 })
		handed := src.sent.Load()
		closed := make(chan struct{})
		go func() {
			engines[0].Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return while handlers were sending")
		}
		waitFor(t, 10*time.Second, "frames queued before Close to arrive", func() bool { return sink.got.Load() >= handed })
		engines[1].Close()
		if len(sink.bad) > 0 {
			t.Fatalf("stream out of order across Close: %v", sink.bad)
		}
	}
}

// relayNode forwards every message to its peer until hops run out.
type relayNode struct {
	peer sim.NodeID
	hops int
}

func (n *relayNode) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if n.hops > 0 {
		n.hops--
		ctx.Send(n.peer, msg)
	}
}

func (n *relayNode) Activate(*sim.Context) {}

// TestLocalSendAllocatesNothing gates the handler→handler path: once the
// queues are warm, a chain of local deliveries costs the engine no
// allocation (and, being on the run goroutine's private queue, no lock).
func TestLocalSendAllocatesNothing(t *testing.T) {
	a, b := &relayNode{peer: 1}, &relayNode{peer: 0}
	eng, err := New(Config{Addrs: []string{""}, Handlers: []sim.Handler{a, b}, Seed: 1, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	msg := &pingMsg{Seq: 1}
	chain := func() {
		a.hops, b.hops = 64, 64
		handlerSender{eng}.Send(1, 0, msg)
		handlerSender{eng}.Send(0, 1, msg)
		eng.drain()
	}
	chain() // warm both generations of the private queue
	before := eng.Metrics().Messages
	if allocs := testing.AllocsPerRun(200, chain); allocs != 0 {
		t.Fatalf("%.2f allocations per 130-delivery local chain, want 0", allocs)
	}
	if got := eng.Metrics().Messages - before; got != 201*130 {
		t.Fatalf("accounted %d deliveries, want %d", got, 201*130)
	}
}
