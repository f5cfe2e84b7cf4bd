package netrun

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
	"dpq/internal/wire"
)

// pingMsg is a test-only protocol message; it registers like any real one.
type pingMsg struct{ Seq int64 }

func (m *pingMsg) Bits() int    { return 64 }
func (m *pingMsg) Kind() string { return "test/ping" }

func init() {
	wire.Register("netrun/test-ping", &pingMsg{},
		func(w *wire.Writer, msg sim.Message) { w.I64(msg.(*pingMsg).Seq) },
		func(r *wire.Reader) sim.Message { return &pingMsg{Seq: r.I64()} },
		&pingMsg{Seq: 3},
	)
}

// echoNode ping-pongs with its peer until limit bounces.
type echoNode struct {
	peer      sim.NodeID
	initiator bool
	limit     int64
	started   bool
	last      atomic.Int64
}

func (n *echoNode) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	m := msg.(*pingMsg)
	n.last.Store(m.Seq)
	if m.Seq < n.limit {
		ctx.Send(from, &pingMsg{Seq: m.Seq + 1})
	}
}

func (n *echoNode) Activate(ctx *sim.Context) {
	if n.initiator && !n.started {
		n.started = true
		ctx.Send(n.peer, &pingMsg{Seq: 1})
	}
}

// bindLoopback reserves n loopback listeners and returns them with their
// addresses.
func bindLoopback(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFrameRoundTrip(t *testing.T) {
	var w wire.Writer
	if err := appendFrame(&w, 3, 4, 77, &pingMsg{Seq: 9}); err != nil {
		t.Fatal(err)
	}
	body := w.Bytes()[4:]
	var fr frameReader
	var f frame
	if err := fr.decode(body, &f); err != nil {
		t.Fatal(err)
	}
	if env := f.env; f.ctl || env.from != 3 || env.to != 4 || env.senderTick != 77 || env.msg.(*pingMsg).Seq != 9 {
		t.Fatalf("frame mismatch: %+v", f)
	}
	if err := fr.decode(body[:len(body)-1], &f); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if err := fr.decode(append(body, 0), &f); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if err := appendFrame(&w, 3, 4, 77, &unregisteredMsg{}); err == nil || len(w.Bytes()) != 4+len(body) {
		t.Fatalf("unregistered message: err %v, writer holds %d bytes, want the first frame's %d", err, len(w.Bytes()), 4+len(body))
	}
}

type unregisteredMsg struct{ pingMsg }

// TestTwoEnginesEcho bounces a counter between two nodes owned by two
// engine instances connected over real loopback TCP.
func TestTwoEnginesEcho(t *testing.T) {
	const limit = 50
	lns, addrs := bindLoopback(t, 2)
	nodes := []*echoNode{
		{peer: 1, initiator: true, limit: limit},
		{peer: 0, limit: limit},
	}
	handlers := []sim.Handler{nodes[0], nodes[1]}
	owner := func(id sim.NodeID) int { return int(id) }
	engines := make([]*Engine, 2)
	for p := 0; p < 2; p++ {
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
	waitFor(t, 10*time.Second, "echo to finish", func() bool {
		return nodes[0].last.Load() >= limit || nodes[1].last.Load() >= limit
	})
	m := engines[1].Metrics()
	if m.Messages == 0 || m.TotalBits == 0 {
		t.Fatalf("engine 1 accounted no traffic: %+v", m)
	}
	if m.Rounds == 0 {
		t.Fatal("engine 1 advanced no ticks")
	}
}

// TestReconnectBackoff starts the receiving engine only after the sender
// has been failing to dial for a while: queued frames must survive the
// outage and flow once the peer appears.
func TestReconnectBackoff(t *testing.T) {
	// Reserve an address, then release it so the first dials fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const limit = 10
	nodes := []*echoNode{
		{peer: 1, initiator: true, limit: limit},
		{peer: 0, limit: limit},
	}
	handlers := []sim.Handler{nodes[0], nodes[1]}
	owner := func(id sim.NodeID) int { return int(id) }

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), addr}
	engA, err := New(Config{
		Proc: 0, Addrs: addrs, Listener: lnA,
		Handlers: handlers, Owner: owner,
		Seed: 1, Tick: time.Millisecond, Strict: true,
		DialBackoffMin: 2 * time.Millisecond, DialBackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engA.Close()
	engA.Start()

	// Let the sender accumulate dial failures, then bring the peer up on
	// the reserved address.
	time.Sleep(150 * time.Millisecond)
	lnB := relisten(t, addr)
	engB, err := New(Config{
		Proc: 1, Addrs: addrs, Listener: lnB,
		Handlers: handlers, Owner: owner,
		Seed: 1, Tick: time.Millisecond, Strict: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engB.Close()
	engB.Start()

	waitFor(t, 10*time.Second, "echo after reconnect", func() bool {
		// The initiator sees even sequence numbers, the peer odd ones;
		// whichever side holds the final number, the bounce is done.
		return nodes[0].last.Load() >= limit || nodes[1].last.Load() >= limit
	})
}

// TestTwoProcessSkeap runs a real Skeap network split across two engine
// instances over loopback TCP and checks sequential consistency of the
// merged trace — the in-process version of the dpqd cluster e2e. The
// handlers are wrapped in the reliable transport, which a daemon no longer
// does: the engine vouches for every link, so the wrapper must send bare
// and frame nothing.
func TestTwoProcessSkeap(t *testing.T) {
	if testing.Short() {
		t.Skip("network cluster test")
	}
	const (
		n      = 4 // hosts
		prios  = 3
		opsPer = 120 // per process
	)
	lns, addrs := bindLoopback(t, 2)
	owner := func(id sim.NodeID) int {
		if ldb.HostOf(id) < n/2 {
			return 0
		}
		return 1
	}

	type proc struct {
		heap *skeap.Heap
		eng  *Engine
	}
	var procs [2]proc
	type fromRound struct {
		mu   sync.Mutex
		last map[sim.NodeID]int
		bad  []string
	}
	monotone := &fromRound{last: map[sim.NodeID]int{}}
	for p := 0; p < 2; p++ {
		h := skeap.New(skeap.Config{N: n, P: prios, Seed: 42})
		handlers, transports := sim.WrapAllReliable(h.Handlers(), sim.DefaultTransportConfig())
		defer func() {
			if st := sim.SumTransportStats(transports); st.Sent != 0 || st.Bypassed == 0 {
				t.Errorf("wrapped handlers framed %d payloads and bypassed %d, want 0 and all", st.Sent, st.Bypassed)
			}
		}()
		groups, group := h.Overlay().Group()
		cfg := Config{
			Proc: p, Addrs: addrs, Listener: lns[p],
			Handlers: handlers, Owner: owner,
			Seed: 7, Groups: groups, Group: group,
			Tick: 300 * time.Microsecond, Strict: true,
		}
		if p == 0 {
			// Deliveries must be round-monotone per sending node: TCP is
			// FIFO per peer and local ticks only grow.
			cfg.Observer = func(d sim.Delivery) {
				monotone.mu.Lock()
				if last, ok := monotone.last[d.From]; ok && d.Round < last {
					monotone.bad = append(monotone.bad,
						fmt.Sprintf("from %d: round %d after %d", d.From, d.Round, last))
				}
				monotone.last[d.From] = d.Round
				monotone.mu.Unlock()
			}
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		procs[p] = proc{heap: h, eng: eng}
		defer eng.Close()
	}
	for _, pr := range procs {
		pr.eng.Start()
	}

	// Each process injects ops on its own hosts, ids disjoint by process.
	for p, pr := range procs {
		id := prio.ElemID(1 + p*100000)
		for i := 0; i < opsPer; i++ {
			host := p*n/2 + i%(n/2)
			if i%3 != 2 {
				pr.heap.InjectInsert(host, id, i%prios, "")
				id++
			} else {
				pr.heap.InjectDelete(host)
			}
		}
	}

	waitFor(t, 60*time.Second, "all operations to complete", func() bool {
		return procs[0].heap.Done() && procs[1].heap.Done()
	})

	merged := semantics.Merge(procs[0].heap.Trace(), procs[1].heap.Trace())
	if rep := semantics.CheckSequentialConsistency(merged, semantics.FIFO); !rep.Ok() {
		t.Fatalf("merged trace inconsistent:\n%s", rep.Error())
	}
	monotone.mu.Lock()
	defer monotone.mu.Unlock()
	if len(monotone.bad) > 0 {
		t.Fatalf("per-sender rounds not monotone: %v", monotone.bad[:min(3, len(monotone.bad))])
	}
	for _, pr := range procs {
		if m := pr.eng.Metrics(); m.Messages == 0 {
			t.Fatal("engine saw no traffic")
		}
	}
}

// TestIdleSkeapWritesNoFrames: once a two-process Skeap network has
// drained its operations and run the empty batch that makes its anchor
// quiet, it writes (almost) no data frames. Before the quiet anchor each
// process wrote a few frames per tick.
func TestIdleSkeapWritesNoFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("network cluster test")
	}
	const n = 4
	lns, addrs := bindLoopback(t, 2)
	owner := func(id sim.NodeID) int { return ldb.HostOf(id) * 2 / n }
	heaps := make([]*skeap.Heap, 2)
	engines := make([]*Engine, 2)
	for p := range engines {
		h := skeap.New(skeap.Config{N: n, P: 2, Seed: 43})
		groups, group := h.Overlay().Group()
		eng, err := New(Config{
			Proc: p, Addrs: addrs, Listener: lns[p],
			Handlers: h.Handlers(), Owner: owner,
			Seed: 7, Groups: groups, Group: group,
			Tick: time.Millisecond, Strict: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		heaps[p], engines[p] = h, eng
		defer eng.Close()
	}
	for _, eng := range engines {
		eng.Start()
	}
	for p, h := range heaps {
		for i := 0; i < 20; i++ {
			host := p*n/2 + i%(n/2)
			if i%2 == 0 {
				h.InjectInsert(host, prio.ElemID(1+p*1000+i), i%2, "")
			} else {
				h.InjectDelete(host)
			}
		}
	}
	waitFor(t, 30*time.Second, "all operations to complete", func() bool {
		return heaps[0].Done() && heaps[1].Done()
	})
	frames := func() (f [2]int64) {
		for p, eng := range engines {
			f[p] = eng.Links().Frames
		}
		return f
	}
	// Drained: no frame for 20 ticks in a row.
	last := frames()
	waitFor(t, 10*time.Second, "the network to go quiet", func() bool {
		time.Sleep(20 * time.Millisecond)
		now := frames()
		quiet := now == last
		last = now
		return quiet
	})
	ticks := [2]int{engines[0].Metrics().Rounds, engines[1].Metrics().Rounds}
	waitFor(t, 30*time.Second, "500 idle ticks", func() bool {
		return engines[0].Metrics().Rounds >= ticks[0]+500 && engines[1].Metrics().Rounds >= ticks[1]+500
	})
	for p, f := range frames() {
		if wrote := f - last[p]; wrote > 10 {
			t.Errorf("process %d wrote %d data frames in 500 idle ticks, want ≤ 10", p, wrote)
		}
	}
}

// TestIdleSkeapStopsTicking: a drained one-process Skeap network has no
// node to activate, so its engine stops ticking; an operation injected
// later wakes it and completes.
func TestIdleSkeapStopsTicking(t *testing.T) {
	h := skeap.New(skeap.Config{N: 4, P: 2, Seed: 44})
	groups, group := h.Overlay().Group()
	eng, err := New(Config{
		Addrs: []string{"unused"}, Handlers: h.Handlers(),
		Seed: 7, Groups: groups, Group: group,
		Tick: time.Millisecond, Strict: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Start()
	h.InjectInsert(1, 1, 0, "")
	waitFor(t, 10*time.Second, "the insert", h.Done)
	last := eng.Metrics().Rounds
	waitFor(t, 10*time.Second, "the engine to stop ticking", func() bool {
		time.Sleep(20 * time.Millisecond)
		now := eng.Metrics().Rounds
		stopped := now == last
		last = now
		return stopped
	})
	time.Sleep(100 * time.Millisecond)
	if ticks := eng.Metrics().Rounds - last; ticks > 0 {
		t.Fatalf("an idle engine ticked %d times in 100 ms", ticks)
	}
	del := h.InjectDelete(3)
	waitFor(t, 10*time.Second, "a delete injected while idle", h.Done)
	if del.Result.ID != 1 {
		t.Fatalf("delete returned %v, want element 1", del.Result)
	}
	if eng.Metrics().Rounds == last {
		t.Fatal("the delete completed without a tick")
	}
}
