package sim

import (
	"testing"

	"dpq/internal/hashutil"
)

// TestSeqSetMatchesMap: the run-length set answers exactly like a map for
// any insertion order and any starting sequence number, and keeps its runs
// sorted, disjoint and merged.
func TestSeqSetMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rnd := hashutil.NewRand(seed)
		base := rnd.Uint64n(1 << 40)
		var s seqSet
		ref := map[uint64]bool{}
		for i := 0; i < 2000; i++ {
			seq := base + rnd.Uint64n(300)
			if got, want := s.add(seq), !ref[seq]; got != want {
				t.Fatalf("seed %d: add(%d) fresh=%v, map says %v", seed, seq, got, want)
			}
			ref[seq] = true
			for k := range s {
				if s[k].lo > s[k].hi || (k > 0 && s[k-1].hi+1 >= s[k].lo) {
					t.Fatalf("seed %d: runs not sorted/merged: %v", seed, s)
				}
			}
		}
		n := 0
		for _, r := range s {
			n += int(r.hi - r.lo + 1)
		}
		if n != len(ref) {
			t.Fatalf("seed %d: runs cover %d numbers, map holds %d", seed, n, len(ref))
		}
	}
}

// sinkNode is an inner handler that counts deliveries and sends on demand.
type sinkNode struct {
	to   NodeID
	msg  Message
	send int
	got  int
}

func (n *sinkNode) HandleMessage(*Context, NodeID, Message) { n.got++ }

func (n *sinkNode) Activate(ctx *Context) {
	for ; n.send > 0; n.send-- {
		ctx.Send(n.to, n.msg)
	}
}

// TestTransportStateIsBounded: a million payloads over a lossy link whose
// acks all arrive leave nothing behind — no outstanding entry, an empty
// retry schedule, one receive run — and the rings never grew beyond the
// in-flight window.
func TestTransportStateIsBounded(t *testing.T) {
	const total, window = 1_000_000, 64
	wire := &captureEngine{}
	a := &sinkNode{to: 1, msg: &floodMsg{N: 1}}
	b := &sinkNode{}
	ta, tb := WrapReliable(a, TransportConfig{}), WrapReliable(b, TransportConfig{})
	ca := &Context{id: 0, engine: wire}
	cb := &Context{id: 1, engine: wire}
	for sent := 0; sent < total; sent += window {
		a.send = window
		ta.Activate(ca)
		frames := wire.out
		wire.out = nil
		for _, f := range frames {
			tb.HandleMessage(cb, f.from, f.msg)
		}
		acks := wire.out
		wire.out = frames[:0]
		// Acks come back in reverse, so entries are acked out of order and
		// the ring only drains once the oldest ack lands.
		for i := len(acks) - 1; i >= 0; i-- {
			ta.HandleMessage(ca, acks[i].from, acks[i].msg)
		}
	}
	if b.got != total {
		t.Fatalf("delivered %d of %d", b.got, total)
	}
	if ta.Outstanding() != 0 || ta.first.Len() != 0 || ta.retries.Len() != 0 {
		t.Fatalf("sender state left behind: outstanding=%d fifo=%d heap=%d", ta.Outstanding(), ta.first.Len(), ta.retries.Len())
	}
	if st := ta.Stats(); st.Sent != total || st.Retries != 0 {
		t.Fatalf("stats %+v", st)
	}
	l := ta.links[1]
	if l.out.Len() != 0 || len(l.out.buf) > 2*window || len(ta.first.buf) > 2*window {
		t.Fatalf("rings grew past the window: out len=%d cap=%d, fifo cap=%d", l.out.Len(), len(l.out.buf), len(ta.first.buf))
	}
	if seen := tb.links[0].seen; len(seen) != 1 || seen[0] != (seqRun{1, total}) {
		t.Fatalf("receive set %v, want one run [1,%d]", seen, total)
	}
}

// losslessWire is an external engine that vouches for every link.
type losslessWire struct{ out []envelope }

func (w *losslessWire) Send(from, to NodeID, msg Message) {
	w.out = append(w.out, envelope{from, to, msg})
}
func (w *losslessWire) Lossless(from, to NodeID) bool { return to != 9 }

// TestTransportBypassesLosslessLinks: over a link the engine vouches for,
// payloads travel bare and leave no state; other links of the same
// transport are framed as ever; bare arrivals are handed straight up.
func TestTransportBypassesLosslessLinks(t *testing.T) {
	w := &losslessWire{}
	n := &sinkNode{to: 1, msg: &floodMsg{N: 7}, send: 3}
	tr := WrapReliable(n, TransportConfig{})
	ctx := NewExternalContext(0, hashutil.NewRand(1), w)
	tr.Activate(ctx)
	n.to, n.send = 9, 1
	tr.Activate(ctx)
	if len(w.out) != 4 {
		t.Fatalf("%d messages on the wire, want 4", len(w.out))
	}
	for _, f := range w.out[:3] {
		if f.msg != n.msg || f.to != 1 {
			t.Fatalf("lossless link carried %T to %d, want the bare payload", f.msg, f.to)
		}
	}
	if f, ok := w.out[3].msg.(*TransportMsg); !ok || f.Seq != 1 || f.Payload != n.msg {
		t.Fatalf("lossy link carried %#v, want frame seq 1", w.out[3].msg)
	}
	if st := tr.Stats(); st != (TransportStats{Sent: 1, Bypassed: 3}) {
		t.Fatalf("stats %+v", st)
	}
	if tr.Outstanding() != 1 || tr.links[1].out.Len() != 0 {
		t.Fatalf("outstanding %d, lossless ring %d", tr.Outstanding(), tr.links[1].out.Len())
	}
	tr.HandleMessage(ctx, 1, &floodMsg{N: 8})
	if n.got != 1 || len(w.out) != 4 {
		t.Fatalf("bare arrival: delivered %d, wire %d (no ack expected)", n.got, len(w.out))
	}
}

// TestTransportLosslessPathAllocatesNothing gates the bypass: a payload
// sent and a payload received over a lossless link cost the transport no
// allocation.
func TestTransportLosslessPathAllocatesNothing(t *testing.T) {
	w := &losslessWire{out: make([]envelope, 0, 1<<12)}
	n := &sinkNode{to: 1, msg: &floodMsg{N: 7}}
	tr := WrapReliable(n, TransportConfig{})
	ctx := NewExternalContext(0, hashutil.NewRand(1), w)
	n.send = 1
	tr.Activate(ctx) // decides the link, builds the shadow context
	allocs := testing.AllocsPerRun(1000, func() {
		w.out = w.out[:0]
		n.send = 2
		tr.Activate(ctx)
		tr.HandleMessage(ctx, 1, n.msg)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per lossless send/receive round, want 0", allocs)
	}
}
