package netrun

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpq/internal/hashutil"
	"dpq/internal/sim"
	"dpq/internal/wire"
)

// The peer session's contract, as tests: exactly-once FIFO delivery across
// connection resets, replay of the unacknowledged tail across a receiver
// restart, a new stream after a sender restart, bounded retention, a
// refused version-1 handshake, and a codec that allocates nothing of its
// own.

// blobMsg carries a payload of any size, for frames larger than the read
// buffer.
type blobMsg struct{ Data string }

func (m *blobMsg) Bits() int    { return 8 * len(m.Data) }
func (m *blobMsg) Kind() string { return "test/blob" }

func init() {
	wire.Register("netrun/test-blob", &blobMsg{},
		func(w *wire.Writer, msg sim.Message) { w.String(msg.(*blobMsg).Data) },
		func(r *wire.Reader) sim.Message { return &blobMsg{Data: r.String()} },
		&blobMsg{Data: "x"},
	)
}

func (p *peer) retainedBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held
}

// chaosProxy forwards TCP connections to target and severs each one after
// a seeded number of bytes — inside the handshake, inside a frame or
// between frames, wherever the offset falls — until its cuts are used up.
type chaosProxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	rng    *hashutil.Rand
	left   int // cuts left
	cuts   atomic.Int64
	wg     sync.WaitGroup
}

func newChaosProxy(t *testing.T, target string, seed uint64, cuts int) *chaosProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	x := &chaosProxy{ln: ln, target: target, rng: hashutil.NewRand(seed), left: cuts}
	x.wg.Add(1)
	go x.accept()
	return x
}

// budget returns how many bytes the next connection may carry (-1: all).
func (x *chaosProxy) budget() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.left == 0 {
		return -1
	}
	x.left--
	if x.rng.Uint64n(8) == 0 {
		return int64(1 + x.rng.Uint64n(handshakeBytes)) // during the handshake
	}
	return int64(1 + x.rng.Uint64n(20000))
}

func (x *chaosProxy) accept() {
	defer x.wg.Done()
	for {
		in, err := x.ln.Accept()
		if err != nil {
			return
		}
		x.wg.Add(1)
		go func() {
			defer x.wg.Done()
			defer in.Close()
			out, err := net.Dial("tcp", x.target)
			if err != nil {
				return
			}
			defer out.Close()
			if n := x.budget(); n < 0 {
				io.Copy(out, in)
			} else if m, _ := io.CopyN(out, in, n); m == n {
				x.cuts.Add(1)
			}
		}()
	}
}

func (x *chaosProxy) close() {
	x.ln.Close()
	x.wg.Wait()
}

// TestSessionSurvivesConnectionResets runs two engines whose connections
// both pass through chaos proxies that keep severing them, while four
// driver goroutines and a streaming handler send to an echoing node: every
// message and every echo must arrive exactly once and in per-(from,to)
// order, and the session must be seen to have replayed and skipped frames
// to get there. With and without the heartbeat: without one, only the tick
// loop's probe notices a connection that died after its last write.
func TestSessionSurvivesConnectionResets(t *testing.T) {
	for _, hb := range []time.Duration{5 * time.Millisecond, 0} {
		t.Run(fmt.Sprintf("heartbeat=%v", hb), func(t *testing.T) {
			const (
				perStream = 4000
				drivers   = 4
				streams   = drivers + 1
			)
			// Process 0 runs the streaming node 0 and the driver identities
			// 2..5, all of which check the echoes they get back; process 1
			// runs node 1, which checks and echoes.
			owner := func(id sim.NodeID) int {
				if id == 1 {
					return 1
				}
				return 0
			}
			nodes := []*streamNode{
				{dests: []sim.NodeID{1}, burst: 25, limit: perStream, next: map[sim.NodeID]int64{}},
				{echo: true},
				{}, {}, {}, {},
			}
			handlers := make([]sim.Handler, len(nodes))
			for i, n := range nodes {
				handlers[i] = n
			}
			lns, addrs := bindLoopback(t, 2)
			proxies := []*chaosProxy{
				newChaosProxy(t, addrs[0], 11, 40), // what process 1 dials
				newChaosProxy(t, addrs[1], 12, 40), // what process 0 dials
			}
			defer proxies[0].close()
			defer proxies[1].close()
			engines := make([]*Engine, 2)
			for p := range engines {
				dial := []string{proxies[0].ln.Addr().String(), proxies[1].ln.Addr().String()}
				eng, err := New(Config{
					Proc: p, Addrs: dial, Listener: lns[p],
					Handlers: handlers, Owner: owner,
					Seed: 1, Tick: 200 * time.Microsecond, Strict: true,
					HeartbeatEvery: hb,
					DialBackoffMin: time.Millisecond, DialBackoffMax: 20 * time.Millisecond,
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
						if seq%200 == 0 {
							time.Sleep(time.Millisecond) // spread the traffic over many connections
						}
					}
				}(sim.NodeID(2 + g))
			}
			wg.Wait()
			waitFor(t, 60*time.Second, "every message and echo to arrive", func() bool {
				if nodes[1].got.Load() < streams*perStream {
					return false
				}
				for _, i := range []int{0, 2, 3, 4, 5} {
					if nodes[i].got.Load() < perStream {
						return false
					}
				}
				return true
			})
			time.Sleep(50 * time.Millisecond) // a duplicate would be right behind
			var links LinkStats
			for _, e := range engines {
				links.add(e.Links())
				e.Close()
			}
			for i, n := range nodes {
				want, from := int64(perStream), 1
				if i == 1 {
					want, from = streams*perStream, streams
				}
				if len(n.bad) > 0 {
					t.Fatalf("node %d: stream out of order: %v", i, n.bad)
				}
				if n.got.Load() != want || len(n.last) != from {
					t.Fatalf("node %d: %d messages over %d streams, want %d over %d", i, n.got.Load(), len(n.last), want, from)
				}
			}
			cuts := proxies[0].cuts.Load() + proxies[1].cuts.Load()
			t.Logf("%d connections severed; links %+v", cuts, links)
			if cuts < 10 {
				t.Fatalf("only %d connections were severed", cuts)
			}
			if links.Replayed == 0 || links.Skipped == 0 {
				t.Fatalf("replayed=%d skipped=%d: the session never had to repair a stream", links.Replayed, links.Skipped)
			}
			if links.Frames != 2*streams*perStream {
				t.Fatalf("links carried %d frames, want %d", links.Frames, 2*streams*perStream)
			}
		})
	}
}

// recordNode records what it receives.
type recordNode struct {
	mu   sync.Mutex
	seqs []int64
}

func (n *recordNode) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	n.mu.Lock()
	n.seqs = append(n.seqs, msg.(*pingMsg).Seq)
	n.mu.Unlock()
}

func (n *recordNode) Activate(*sim.Context) {}

func (n *recordNode) snapshot() []int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]int64(nil), n.seqs...)
}

// relisten binds addr again once its previous owner has let go of it.
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rebinding %s: %v", addr, err)
	return nil
}

// TestSessionAcrossRestarts rebuilds first the receiving engine and then
// the sending one on their old addresses. The restarted receiver must get
// the sender's unacknowledged tail and nothing from before the acknowledged
// position; the restarted sender's new stream must be accepted from its
// stated position; each survivor hears of the restart exactly once.
func TestSessionAcrossRestarts(t *testing.T) {
	lns, addrs := bindLoopback(t, 2)
	owner := func(id sim.NodeID) int { return int(id) }
	var rejoins [2]atomic.Int64
	build := func(p int, ln net.Listener, sink *recordNode) *Engine {
		eng, err := New(Config{
			Proc: p, Addrs: addrs, Listener: ln,
			Handlers: []sim.Handler{sink, sink}, Owner: owner,
			Seed: 1, Tick: 200 * time.Microsecond, Strict: true,
			HeartbeatEvery: 5 * time.Millisecond, SuspectAfter: time.Hour, DownAfter: 2 * time.Hour,
			DialBackoffMin: time.Millisecond, DialBackoffMax: 20 * time.Millisecond,
			OnPeerRejoin: func(int) { rejoins[p].Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.Start()
		return eng
	}
	send := func(e *Engine, from, to sim.NodeID, lo, hi int64) {
		for seq := lo; seq <= hi; seq++ {
			e.Send(from, to, &pingMsg{Seq: seq})
		}
	}
	sinkA, sinkB := &recordNode{}, &recordNode{}
	a, b := build(0, lns[0], sinkA), build(1, lns[1], sinkB)
	defer func() { a.Close(); b.Close() }()

	send(a, 0, 1, 1, 100)
	waitFor(t, 10*time.Second, "the first hundred to be delivered and acknowledged", func() bool {
		return len(sinkB.snapshot()) == 100 && a.peers[1].retainedBytes() == 0
	})

	// Receiver restart. What the sender hands the link while it is away is
	// the unacknowledged tail.
	b.Close()
	send(a, 0, 1, 101, 150)
	sinkB2 := &recordNode{}
	b = build(1, relisten(t, addrs[1]), sinkB2)
	waitFor(t, 10*time.Second, "the tail to reach the restarted receiver", func() bool { return len(sinkB2.snapshot()) >= 50 })
	waitFor(t, 10*time.Second, "the sender to hear of the restart", func() bool { return rejoins[0].Load() > 0 })
	time.Sleep(50 * time.Millisecond)
	got := sinkB2.snapshot()
	if len(got) != 50 || got[0] != 101 || got[49] != 150 {
		t.Fatalf("restarted receiver got %d messages %v…, want exactly 101..150", len(got), got[:min(len(got), 5)])
	}
	if n := rejoins[0].Load(); n != 1 {
		t.Fatalf("sender saw %d rejoins of the receiver, want 1", n)
	}
	if st := a.Links(); st.Replayed == 0 {
		t.Logf("tail went out on the new connection first (nothing had been written to the old one): %+v", st)
	}

	// Sender restart: a new incarnation, a new stream from position 0.
	a.Close()
	sinkA2 := &recordNode{}
	a = build(0, relisten(t, addrs[0]), sinkA2)
	send(a, 0, 1, 1001, 1030)
	waitFor(t, 10*time.Second, "the restarted sender's stream to arrive", func() bool { return len(sinkB2.snapshot()) >= 80 })
	waitFor(t, 10*time.Second, "the receiver to hear of the restart", func() bool { return rejoins[1].Load() > 0 })
	time.Sleep(50 * time.Millisecond)
	got = sinkB2.snapshot()
	if len(got) != 80 || got[50] != 1001 || got[79] != 1030 {
		t.Fatalf("after the sender restart the receiver holds %d messages, tail %v, want 101..150 then 1001..1030", len(got), got[min(len(got), 50):])
	}
	if n := rejoins[1].Load(); n != 1 {
		t.Fatalf("receiver saw %d rejoins of the sender, want 1", n)
	}
	// And the other direction of the rebuilt pair works from scratch too.
	send(b, 1, 0, 1, 10)
	waitFor(t, 10*time.Second, "the reverse stream", func() bool { return len(sinkA2.snapshot()) == 10 })
}

// TestRetentionBounded streams a million frames over a healthy link whose
// reverse direction carries nothing: the sender may hold only what is
// unacknowledged, the heartbeat must carry the acknowledgements, and two
// heartbeats after the last frame nothing may be held at all.
func TestRetentionBounded(t *testing.T) {
	frames := int64(1_000_000)
	if testing.Short() {
		frames = 100_000
	}
	// The source is paced (at most 2M frames/s) so that the stream spans
	// many heartbeats on any machine.
	const hb = 50 * time.Millisecond
	src := &streamNode{dests: []sim.NodeID{1}, burst: 400, limit: frames, next: map[sim.NodeID]int64{}}
	sink := &streamNode{}
	lns, addrs := bindLoopback(t, 2)
	engines := make([]*Engine, 2)
	for p := range engines {
		eng, err := New(Config{
			Proc: p, Addrs: addrs, Listener: lns[p],
			Handlers: []sim.Handler{src, sink}, Owner: func(id sim.NodeID) int { return int(id) },
			Seed: 1, Tick: 200 * time.Microsecond, Strict: true,
			HeartbeatEvery: hb, SuspectAfter: time.Hour, DownAfter: 2 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[p] = eng
		defer eng.Close()
		eng.Start()
	}
	waitFor(t, 120*time.Second, "the stream to arrive", func() bool { return sink.got.Load() >= frames })
	link := engines[0].peers[1]
	waitFor(t, 2*hb, "the last frames to be acknowledged", func() bool { return link.retainedBytes() == 0 })
	st := engines[0].Links()
	t.Logf("sender link %+v; receiver link %+v", st, engines[1].Links())
	if st.Frames != frames || st.Replayed != 0 || engines[1].Links().Skipped != 0 {
		t.Fatalf("healthy link counted %+v", st)
	}
	if total := frames * 40; st.RetainedMax <= 0 || st.RetainedMax > total/2 {
		t.Fatalf("retained up to %d of ~%d bytes sent: acknowledgements did not keep up", st.RetainedMax, total)
	}
	if acks := engines[1].Links().Acks; acks == 0 || acks > frames/100 {
		t.Fatalf("receiver wrote %d control frames for %d frames", acks, frames)
	}
	if len(sink.bad) > 0 || sink.got.Load() != frames {
		t.Fatalf("stream damaged: %d frames, %v", sink.got.Load(), sink.bad)
	}
}

// TestIdleDirectionAckedFromTick: without a heartbeat the tick loop writes
// the acknowledgements of a direction that carries nothing else — and only
// while there is something to acknowledge.
func TestIdleDirectionAckedFromTick(t *testing.T) {
	sink := &streamNode{}
	lns, addrs := bindLoopback(t, 2)
	engines := make([]*Engine, 2)
	for p := range engines {
		eng, err := New(Config{
			Proc: p, Addrs: addrs, Listener: lns[p],
			Handlers: []sim.Handler{sink, sink}, Owner: func(id sim.NodeID) int { return int(id) },
			Seed: 1, Tick: time.Millisecond, Strict: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[p] = eng
		defer eng.Close()
		eng.Start()
	}
	for seq := int64(1); seq <= 1000; seq++ {
		engines[0].Send(0, 1, &pingMsg{Seq: seq})
	}
	link := engines[0].peers[1]
	waitFor(t, 5*time.Second, "the tick loop's acknowledgement", func() bool {
		return sink.got.Load() == 1000 && link.retainedBytes() == 0
	})
	acks := engines[1].Links().Acks
	time.Sleep(50 * time.Millisecond) // 50 idle ticks
	if again := engines[1].Links().Acks; acks == 0 || again != acks {
		t.Fatalf("receiver wrote %d control frames, then %d more with nothing new to acknowledge", acks, again-acks)
	}
	if st := engines[0].Links(); st.Acks != 0 || st.Frames != 1000 {
		t.Fatalf("sender link %+v: it has nothing to acknowledge", st)
	}
}

// blobSink counts the intact blobs it receives.
type blobSink struct{ got atomic.Int64 }

func (s *blobSink) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if m, ok := msg.(*blobMsg); ok && len(m.Data) == 5*readBufBytes && strings.Count(m.Data, "z") == len(m.Data) {
		s.got.Add(1)
	}
}

func (s *blobSink) Activate(*sim.Context) {}

// TestLargeFrame sends frames several times the size of the read buffer,
// which cannot be decoded in place.
func TestLargeFrame(t *testing.T) {
	sink := &blobSink{}
	lns, addrs := bindLoopback(t, 2)
	engines := make([]*Engine, 2)
	for p := range engines {
		eng, err := New(Config{
			Proc: p, Addrs: addrs, Listener: lns[p],
			Handlers: []sim.Handler{sink, sink}, Owner: func(id sim.NodeID) int { return int(id) },
			Seed: 1, Strict: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[p] = eng
		defer eng.Close()
		eng.Start()
	}
	big := &blobMsg{Data: strings.Repeat("z", 5*readBufBytes)}
	engines[0].Send(0, 1, &pingMsg{Seq: 1})
	engines[0].Send(0, 1, big)
	engines[0].Send(0, 1, big)
	waitFor(t, 10*time.Second, "the large frames", func() bool { return sink.got.Load() == 2 })
}

// v1Handshake is what a wire.Version 1 process opens a connection with.
func v1Handshake(proc int, incarnation uint64) []byte {
	b := binary.BigEndian.AppendUint32(nil, magic)
	b = binary.BigEndian.AppendUint16(b, 1)
	b = binary.BigEndian.AppendUint32(b, uint32(proc))
	return binary.BigEndian.AppendUint64(b, incarnation)
}

// TestVersion1HandshakeRefused: a mixed cluster must refuse at connect, with
// a log line that says why, and never read the old peer's frames as a
// stream position.
func TestVersion1HandshakeRefused(t *testing.T) {
	var logMu sync.Mutex
	var logged []string
	sink := &recordNode{}
	lns, addrs := bindLoopback(t, 2)
	lns[1].Close()
	eng, err := New(Config{
		Proc: 0, Addrs: addrs, Listener: lns[0],
		Handlers: []sim.Handler{sink, sink}, Owner: func(id sim.NodeID) int { return int(id) },
		Seed: 1, Strict: true,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Start()
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var w wire.Writer
	w.Swap(v1Handshake(1, 42))
	if err := appendFrame(&w, 1, 0, 0, &pingMsg{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || strings.Contains(err.Error(), "timeout") {
		t.Fatalf("connection with a version-1 handshake was not closed: %v", err)
	}
	logMu.Lock()
	defer logMu.Unlock()
	want := "codec version mismatch: got 1, want 2"
	if !strings.Contains(strings.Join(logged, "\n"), want) {
		t.Fatalf("log %q lacks %q", logged, want)
	}
	if len(sink.snapshot()) != 0 {
		t.Fatal("a frame behind a refused handshake was delivered")
	}
}

// TestAnyPeerDownFollowsTransitions checks the down count behind
// AnyPeerDown against the per-peer grades through every kind of transition.
func TestAnyPeerDownFollowsTransitions(t *testing.T) {
	sink := &recordNode{}
	eng, err := New(Config{
		Proc: 0, Addrs: []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:2"},
		Handlers: []sim.Handler{sink, sink, sink}, Owner: func(id sim.NodeID) int { return int(id) },
		HeartbeatEvery: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	check := func(when string) {
		t.Helper()
		scan := eng.PeerIsDown(1) || eng.PeerIsDown(2)
		if eng.AnyPeerDown() != scan {
			t.Fatalf("%s: AnyPeerDown=%v, per-peer grades say %v", when, eng.AnyPeerDown(), scan)
		}
	}
	check("fresh")
	now := time.Now()
	eng.checkHealth(now.Add(eng.cfg.SuspectAfter))
	check("suspect")
	eng.checkHealth(now.Add(eng.cfg.DownAfter))
	if !eng.AnyPeerDown() {
		t.Fatal("both peers stale past DownAfter, none down")
	}
	check("down")
	eng.checkHealth(now.Add(2 * eng.cfg.DownAfter))
	check("still down")
	eng.noteAlive(1)
	check("one back")
	eng.noteHandshake(2, 7, false)
	if eng.AnyPeerDown() {
		t.Fatal("both peers back, one still counted down")
	}
	check("both back")
}

// TestFramingAllocatesNothing gates the send half of the codec: framing a
// message into a warm peer buffer costs no allocation.
func TestFramingAllocatesNothing(t *testing.T) {
	p := newPeer(1, "", time.Millisecond, time.Second, 1)
	msg := &pingMsg{Seq: 1}
	for i := 0; i < 4096; i++ {
		p.enqueueMsg(0, 1, 7, msg)
	}
	p.w.Truncate(ctlFrameBytes)
	if allocs := testing.AllocsPerRun(2000, func() { p.enqueueMsg(0, 1, 7, msg) }); allocs != 0 {
		t.Fatalf("%.2f allocations to frame a message into a warm buffer, want 0", allocs)
	}
}

// TestInboundFrameAllocations gates the receive half: an inbound frame
// costs exactly what its decoded message costs (one object for a pingMsg) —
// no Reader, no length array, no scratch copy.
func TestInboundFrameAllocations(t *testing.T) {
	const frames = 1000
	var w wire.Writer
	for i := 0; i < frames; i++ {
		if err := appendFrame(&w, 0, 1, int64(i), &pingMsg{Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	stream := w.Bytes()
	src := bytes.NewReader(stream)
	fr := newFrameReader(src)
	var f frame
	allocs := testing.AllocsPerRun(50, func() {
		src.Reset(stream)
		fr.br.Reset(src)
		for i := 0; i < frames; i++ {
			if err := fr.next(&f); err != nil || f.env.msg.(*pingMsg).Seq != int64(i) {
				t.Fatalf("frame %d: %v %+v", i, err, f)
			}
		}
	})
	if allocs != frames {
		t.Fatalf("%.1f allocations for %d inbound frames, want one per decoded message", allocs, frames)
	}
}

// FuzzInboundStream feeds arbitrary bytes to the reader side of a
// connection — handshake, control frames, data frames. It must never panic,
// and what it accepts must mean what the encoders would have written.
func FuzzInboundStream(f *testing.F) {
	hs := appendHandshake(nil, handshake{proc: 1, incarnation: 99, pos: 12})
	var w wire.Writer
	w.Swap(append([]byte(nil), hs...))
	var ctl [ctlFrameBytes]byte
	putCtlFrame(ctl[:], 5, 77)
	w.Swap(append(w.Bytes(), ctl[:]...))
	appendFrame(&w, 3, 4, 9, &pingMsg{Seq: 1})
	appendFrame(&w, 3, 4, 9, &blobMsg{Data: "payload"})
	f.Add(w.Bytes())
	f.Add(hs)
	f.Add(hs[:handshakePrefix])
	f.Add(append(append([]byte(nil), hs...), ctl[:ctlFrameBytes-1]...))
	f.Add(v1Handshake(1, 99))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		h, err := readHandshake(fr.br)
		if err != nil {
			return
		}
		if !bytes.Equal(appendHandshake(nil, h), data[:handshakeBytes]) {
			t.Fatalf("handshake %+v does not re-encode to its input", h)
		}
		var fm frame
		for off := handshakeBytes; ; {
			if err := fr.next(&fm); err != nil {
				return
			}
			n := 4 + int(binary.BigEndian.Uint32(data[off:]))
			var re wire.Writer
			if fm.ctl {
				var b [ctlFrameBytes]byte
				putCtlFrame(b[:], fm.ackInc, fm.ackPos)
				re.Swap(b[:])
			} else if err := appendFrame(&re, fm.env.from, fm.env.to, fm.env.senderTick, fm.env.msg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), data[off:off+n]) {
				t.Fatalf("frame at %d does not re-encode to its input", off)
			}
			off += n
		}
	})
}
