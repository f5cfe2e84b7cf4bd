package sim

import (
	"fmt"
	"sort"
	"testing"

	"dpq/internal/hashutil"
)

// refTransport is the reference model the transport is checked against:
// the original map-and-heap bookkeeping, kept as small and obvious as it
// can be. outstanding is keyed by (to, seq), seen is a set per sender, and
// the retry schedule is one list sorted by (due, ord) on every activation.
type refTransport struct {
	cfg         TransportConfig
	ticks       int64
	ord         uint64
	nextSeq     map[NodeID]uint64
	seen        map[NodeID]map[uint64]bool
	outstanding map[[2]uint64]*refEntry
	sched       []*refEntry
	out         []envelope // frames emitted by the last call
	delivered   []Message  // payloads handed up by the last call
}

type refEntry struct {
	due, backoff int64
	ord          uint64
	to           NodeID
	frame        *TransportMsg
	acked        bool
}

func newRefTransport() *refTransport {
	return &refTransport{cfg: DefaultTransportConfig(), nextSeq: map[NodeID]uint64{},
		seen: map[NodeID]map[uint64]bool{}, outstanding: map[[2]uint64]*refEntry{}}
}

func (r *refTransport) send(self, to NodeID, msg Message) {
	r.nextSeq[to]++
	r.ord++
	e := &refEntry{due: r.ticks + int64(r.cfg.RetryTicks), backoff: int64(r.cfg.RetryTicks), ord: r.ord, to: to,
		frame: &TransportMsg{Seq: r.nextSeq[to], Payload: msg}}
	r.outstanding[[2]uint64{uint64(to), e.frame.Seq}] = e
	r.sched = append(r.sched, e)
	r.out = append(r.out, envelope{self, to, e.frame})
}

func (r *refTransport) handle(self, from NodeID, msg Message) {
	switch m := msg.(type) {
	case *TransportMsg:
		r.out = append(r.out, envelope{self, from, &TransportAck{Seq: m.Seq}})
		if r.seen[from] == nil {
			r.seen[from] = map[uint64]bool{}
		}
		if !r.seen[from][m.Seq] {
			r.seen[from][m.Seq] = true
			r.delivered = append(r.delivered, m.Payload)
		}
	case *TransportAck:
		if e := r.outstanding[[2]uint64{uint64(from), m.Seq}]; e != nil {
			e.acked = true
			delete(r.outstanding, [2]uint64{uint64(from), m.Seq})
		}
	}
}

func (r *refTransport) activate(self NodeID) {
	r.ticks++
	sort.Slice(r.sched, func(i, j int) bool {
		return retryLess(retryItem{due: r.sched[i].due, ord: r.sched[i].ord}, retryItem{due: r.sched[j].due, ord: r.sched[j].ord})
	})
	var keep []*refEntry
	for _, e := range r.sched {
		if e.acked {
			continue
		}
		if e.due <= r.ticks { // sorted: these come first, in pop order
			r.out = append(r.out, envelope{self, e.to, e.frame})
			r.ord++
			e.backoff = min(2*e.backoff, int64(r.cfg.MaxBackoffTicks))
			e.due, e.ord = r.ticks+e.backoff, r.ord
		}
		keep = append(keep, e)
	}
	r.sched = keep
}

// modelNode is the inner handler of the model test: it records what the
// transport hands up and sends scripted payloads.
type modelNode struct {
	got    []Message
	script []envelope // sends of the next Activate (to, msg)
}

func (n *modelNode) HandleMessage(ctx *Context, from NodeID, msg Message) {
	n.got = append(n.got, msg)
}

func (n *modelNode) Activate(ctx *Context) {
	for _, s := range n.script {
		ctx.Send(s.to, s.msg)
	}
}

// captureEngine records what a transport puts on the wire.
type captureEngine struct{ out []envelope }

func (c *captureEngine) send(from, to NodeID, msg Message) {
	c.out = append(c.out, envelope{from, to, msg})
}

func describeFrame(e envelope) string {
	switch m := e.msg.(type) {
	case *TransportMsg:
		return fmt.Sprintf("%d→%d msg seq=%d payload=%d", e.from, e.to, m.Seq, m.Payload.(*floodMsg).N)
	case *TransportAck:
		return fmt.Sprintf("%d→%d ack seq=%d", e.from, e.to, m.Seq)
	}
	return fmt.Sprintf("%d→%d %T", e.from, e.to, e.msg)
}

// TestTransportMatchesReferenceModel drives the transport and the
// reference model through one seeded schedule of sends, loss, duplication,
// arbitrary reordering, node restarts with frames of the old incarnation
// still in flight, and ResetPeer (immediate, late, or never), and requires
// the same frames out and the same payloads up at every step.
func TestTransportMatchesReferenceModel(t *testing.T) {
	const nodes, steps = 3, 6000
	for seed := uint64(1); seed <= 40; seed++ {
		rnd := hashutil.NewRand(seed)
		dropRate, dupRate := rnd.Float64()*0.4, rnd.Float64()*0.3
		wire := &captureEngine{}
		inner := make([]*modelNode, nodes)
		real := make([]*ReliableTransport, nodes)
		ref := make([]*refTransport, nodes)
		ctxs := make([]*Context, nodes)
		boot := func(i int) {
			inner[i] = &modelNode{}
			real[i] = WrapReliable(inner[i], TransportConfig{})
			ref[i] = newRefTransport()
		}
		for i := range real {
			boot(i)
			ctxs[i] = &Context{id: NodeID(i), rand: hashutil.NewRand(seed + uint64(i)), engine: wire}
		}
		var flight []envelope
		var resets [][2]int // pending ResetPeer calls: (at, about)
		payload := 0

		// settle compares what step did on both sides and puts the frames
		// on the lossy wire.
		settle := func(step, i int, what string) {
			t.Helper()
			if len(wire.out) != len(ref[i].out) {
				t.Fatalf("seed %d step %d (%s at %d): %d frames out, model %d", seed, step, what, i, len(wire.out), len(ref[i].out))
			}
			for k, f := range wire.out {
				if a, b := describeFrame(f), describeFrame(ref[i].out[k]); a != b {
					t.Fatalf("seed %d step %d (%s at %d): frame %d is %q, model %q", seed, step, what, i, k, a, b)
				}
			}
			if len(inner[i].got) != len(ref[i].delivered) {
				t.Fatalf("seed %d step %d (%s at %d): delivered %d payloads, model %d", seed, step, what, i, len(inner[i].got), len(ref[i].delivered))
			}
			for k, m := range inner[i].got {
				if m != ref[i].delivered[k] {
					t.Fatalf("seed %d step %d (%s at %d): delivery %d differs from the model", seed, step, what, i, k)
				}
			}
			if got, want := real[i].Outstanding(), len(ref[i].outstanding); got != want {
				t.Fatalf("seed %d step %d (%s at %d): outstanding %d, model %d", seed, step, what, i, got, want)
			}
			for _, f := range wire.out {
				if rnd.Bool(dropRate) {
					continue
				}
				flight = append(flight, f)
				if rnd.Bool(dupRate) {
					flight = append(flight, f)
				}
			}
			wire.out, ref[i].out = wire.out[:0], nil
			inner[i].got, ref[i].delivered = inner[i].got[:0], nil
		}

		for step := 0; step < steps; step++ {
			switch r := rnd.Intn(100); {
			case r < 30 || len(flight) == 0: // activate, maybe sending
				i := rnd.Intn(nodes)
				var script []envelope
				if step < steps*3/4 { // then let the retransmissions settle
					for k := rnd.Intn(3); k > 0; k-- {
						payload++
						script = append(script, envelope{to: NodeID(rnd.Intn(nodes)), msg: &floodMsg{N: payload}})
					}
				}
				inner[i].script = script
				real[i].Activate(ctxs[i])
				ref[i].activate(NodeID(i))
				for _, s := range script {
					ref[i].send(NodeID(i), s.to, s.msg)
				}
				settle(step, i, "activate")
			case r < 97: // deliver any in-flight frame
				k := rnd.Intn(len(flight))
				f := flight[k]
				flight[k] = flight[len(flight)-1]
				flight = flight[:len(flight)-1]
				real[f.to].HandleMessage(ctxs[f.to], f.from, f.msg)
				ref[f.to].handle(f.to, f.from, f.msg)
				settle(step, int(f.to), "deliver")
			case r < 99: // restart a node; its old frames stay in flight
				i := rnd.Intn(nodes)
				boot(i)
				for j := 0; j < nodes; j++ {
					if j != i && rnd.Bool(0.8) {
						resets = append(resets, [2]int{j, i})
					}
				}
			default: // a survivor learns of a restart
				if len(resets) > 0 {
					rs := resets[0]
					resets = resets[1:]
					real[rs[0]].ResetPeer(NodeID(rs[1]))
					delete(ref[rs[0]].seen, NodeID(rs[1]))
				}
			}
		}
	}
}
