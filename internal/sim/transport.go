package sim

import "sort"

// The reliable transport turns the lossy channel of a fault-injected
// AsyncEngine (or a TCP connection that can reset) back into the "never
// lost or duplicated" channel of §1.1, so the unmodified protocols survive
// drops, duplicates and crash windows:
//
//	inner Handler ──Send──▶ ReliableTransport ──TransportMsg{seq}──▶ wire
//	                              ▲   │ retry (exponential backoff)
//	                              │   ▼
//	wire ──TransportMsg{seq}──▶ dedup ──▶ inner Handler   (exactly once)
//	                              │
//	                              └──TransportAck{seq}──▶ sender
//
// Every payload gets a per-(sender,destination) sequence number; the
// receiver acks every copy and delivers the first only; the sender
// retransmits unacked payloads on its activations with exponential
// backoff. At-least-once on the wire plus receiver-side suppression gives
// exactly-once delivery to the wrapped handler (FuzzReliableTransport).
//
// A link that cannot lose needs none of this. The transport asks its
// engine once per destination whether the link is lossless (see
// LosslessSender) and, if so, forwards payloads bare: no sequence number,
// no ack, no state. The receiving transport already passes bare messages
// straight through, so the two ends need not agree on anything.
//
// State is O(1) per message and bounded by what is in flight: unacked
// payloads sit in a per-destination ring indexed by seq−base, delivered
// sequence numbers in a per-source set of [lo,hi] runs (one run in steady
// state), and the retransmission schedule in a FIFO plus a heap (see
// popDue). None of it changes what goes on the wire or when.

// transportHeaderBits is the wire overhead per transport frame: a 64-bit
// sequence number and an 8-bit frame tag.
const transportHeaderBits = 72

// TransportMsg carries one protocol message under a per-(sender,
// destination) sequence number.
type TransportMsg struct {
	Seq     uint64
	Payload Message
}

// Bits counts the payload plus the transport header.
func (m *TransportMsg) Bits() int { return m.Payload.Bits() + transportHeaderBits }

// Kind classifies the frame by its payload: "xport/<payload kind>".
func (m *TransportMsg) Kind() string { return "xport/" + KindOf(m.Payload) }

// TransportAck acknowledges receipt of the sender's TransportMsg Seq.
type TransportAck struct{ Seq uint64 }

// Bits counts the transport header only.
func (a *TransportAck) Bits() int { return transportHeaderBits }

// Kind names the ack frame.
func (a *TransportAck) Kind() string { return "xport/ack" }

// TransportConfig tunes the retransmission schedule. Ticks are activations
// of the sending node (activation spacing is ≈1 sim-time unit), so the
// initial timeout should exceed one round trip: 2·maxDelay plus ack
// processing.
type TransportConfig struct {
	RetryTicks      int // initial retransmission timeout, in activations
	MaxBackoffTicks int // cap for the exponential backoff
}

// DefaultTransportConfig matches the engines' usual maxDelay of ≈3.
func DefaultTransportConfig() TransportConfig {
	return TransportConfig{RetryTicks: 8, MaxBackoffTicks: 128}
}

// TransportStats aggregates a transport's (or a whole network's) traffic.
type TransportStats struct {
	Sent       int64 `json:"sent"`       // distinct payloads framed under a sequence number
	Retries    int64 `json:"retries"`    // retransmissions of unacked payloads
	Duplicates int64 `json:"duplicates"` // received duplicate frames suppressed
	Bypassed   int64 `json:"bypassed"`   // payloads forwarded bare over a lossless link
}

// Add accumulates other into s.
func (s *TransportStats) Add(other TransportStats) {
	s.Sent += other.Sent
	s.Retries += other.Retries
	s.Duplicates += other.Duplicates
	s.Bypassed += other.Bypassed
}

// outEntry is one payload awaiting its ack; frame is nil once acked.
type outEntry struct {
	frame   *TransportMsg
	backoff int64
}

// seqRun is a maximal run [lo,hi] of delivered sequence numbers.
type seqRun struct{ lo, hi uint64 }

// seqSet is a set of sequence numbers kept as sorted, disjoint,
// non-adjacent runs. A FIFO-ish link keeps it at one run whatever its
// first sequence number is (a receiver that restarted, or forgot the
// sender through ResetPeer, joins the sender's numbering mid-stream);
// reordering and loss add one run per gap, which closes when the
// retransmission lands.
type seqSet []seqRun

// add inserts seq and reports whether it was absent.
func (s *seqSet) add(seq uint64) bool {
	r := *s
	// i counts the runs starting at or below seq; the newest sequence
	// number is almost always beyond the last run's start.
	i := len(r)
	if i > 0 && r[i-1].lo > seq {
		i = sort.Search(len(r), func(k int) bool { return r[k].lo > seq })
	}
	if i > 0 && seq <= r[i-1].hi {
		return false
	}
	left := i > 0 && r[i-1].hi+1 == seq
	right := i < len(r) && seq+1 == r[i].lo
	switch {
	case left && right:
		r[i-1].hi = r[i].hi
		*s = append(r[:i], r[i+1:]...)
	case left:
		r[i-1].hi = seq
	case right:
		r[i].lo = seq
	default:
		r = append(r, seqRun{})
		copy(r[i+1:], r[i:])
		r[i] = seqRun{seq, seq}
		*s = r
	}
	return true
}

// link is the transport's state for one peer, both directions.
type link struct {
	// Send side. lossless is the engine's answer, asked when the link is
	// created. Otherwise sequence numbers base..nextSeq are in out, in
	// order, with base = nextSeq+1−out.Len(): acked entries leave from the
	// front only, so an ack finds its entry at index seq−base.
	lossless bool
	nextSeq  uint64
	out      ring[outEntry]

	// Receive side: the peer's sequence numbers already delivered.
	seen seqSet
}

// entry returns the unacked entry of seq, or nil if seq was acked (or
// never sent).
func (l *link) entry(seq uint64) *outEntry {
	base := l.nextSeq + 1 - uint64(l.out.Len())
	if seq < base || seq > l.nextSeq {
		return nil
	}
	if e := l.out.At(int(seq - base)); e.frame != nil {
		return e
	}
	return nil
}

// retryItem schedules one retransmission; ord makes the schedule a strict
// total order so runs stay deterministic.
type retryItem struct {
	due int64
	ord uint64
	to  NodeID
	seq uint64
}

func retryLess(a, b retryItem) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.ord < b.ord
}

// ReliableTransport wraps a Handler with sequence numbers, acks,
// exponential-backoff retransmission and duplicate suppression. Wrap every
// handler of a network (WrapAllReliable) — frames are only understood by
// another transport. The wrapper is transparent to the inner handler: it
// sees original payloads, original sender ids and its own Context.
type ReliableTransport struct {
	inner Handler
	cfg   TransportConfig

	outer  *Context // the engine's context, bound on every upcall
	shadow *Context // the inner handler's view; its sends come to us

	ticks   int64
	ord     uint64
	links   []*link // by peer NodeID; nil until the first frame either way
	unacked int

	// The retransmission schedule, ordered by (due, ord). A payload's
	// first timeout is ticks+RetryTicks at send time, and both ticks and
	// ord only grow, so first timeouts are already sorted in send order and
	// live in a FIFO; only payloads that were actually retransmitted (a
	// doubled, per-entry backoff) need the heap. popDue merges the two.
	first   ring[retryItem]
	retries minHeap[retryItem]

	stats TransportStats
}

// WrapReliable wraps one handler. A zero cfg uses DefaultTransportConfig.
func WrapReliable(h Handler, cfg TransportConfig) *ReliableTransport {
	if cfg.RetryTicks <= 0 {
		cfg = DefaultTransportConfig()
	}
	if cfg.MaxBackoffTicks < cfg.RetryTicks {
		cfg.MaxBackoffTicks = cfg.RetryTicks
	}
	return &ReliableTransport{inner: h, cfg: cfg, retries: newMinHeap(retryLess)}
}

// WrapAllReliable wraps every handler of a network, returning the wrapped
// handler slice and the transports for stats access.
func WrapAllReliable(hs []Handler, cfg TransportConfig) ([]Handler, []*ReliableTransport) {
	wrapped := make([]Handler, len(hs))
	transports := make([]*ReliableTransport, len(hs))
	for i, h := range hs {
		t := WrapReliable(h, cfg)
		wrapped[i] = t
		transports[i] = t
	}
	return wrapped, transports
}

// Stats returns this node's transport counters.
func (t *ReliableTransport) Stats() TransportStats { return t.stats }

// Outstanding returns the number of payloads sent but not yet acked.
func (t *ReliableTransport) Outstanding() int { return t.unacked }

// Inner returns the wrapped handler.
func (t *ReliableTransport) Inner() Handler { return t.inner }

// ResetPeer forgets the receive-side dedup state for frames from one
// sender. A restarted process begins numbering its frames from zero again;
// without the reset, every frame it sends would be swallowed as a
// duplicate of its previous incarnation's traffic. Call it on the
// receiving node's goroutine for each virtual node of the restarted
// process.
func (t *ReliableTransport) ResetPeer(from NodeID) {
	if l := t.known(from); l != nil {
		l.seen = l.seen[:0]
	}
}

// SumTransportStats totals the counters of a wrapped network.
func SumTransportStats(ts []*ReliableTransport) TransportStats {
	var s TransportStats
	for _, t := range ts {
		s.Add(t.Stats())
	}
	return s
}

// known returns the state for peer, or nil if no frame has passed either
// way yet.
func (t *ReliableTransport) known(peer NodeID) *link {
	if int(peer) < 0 || int(peer) >= len(t.links) {
		return nil
	}
	return t.links[peer]
}

// link returns the state for peer, creating it on first use — always
// inside an upcall, so the engine context is bound and can be asked
// whether the link is lossless.
func (t *ReliableTransport) link(peer NodeID) *link {
	if l := t.known(peer); l != nil {
		return l
	}
	if int(peer) >= len(t.links) {
		t.links = append(t.links, make([]*link, int(peer)+1-len(t.links))...)
	}
	l := &link{lossless: t.outer.lossless(peer)}
	t.links[peer] = l
	return l
}

// bind captures the engine context of the current upcall and (once)
// builds the shadow context handed to the inner handler.
func (t *ReliableTransport) bind(ctx *Context) {
	if t.shadow == nil {
		t.shadow = &Context{id: ctx.id, engine: t}
	}
	// The engine stores PRNG state in a flat array that can move on
	// AddHandler; re-point the shadow at the current slot on every upcall.
	t.shadow.rand = ctx.rand
	t.outer = ctx
}

// HandleMessage implements Handler: frames are acked, deduped and
// unwrapped; bare messages (from a sender whose link to us is lossless, or
// a driver injection) pass through untouched.
func (t *ReliableTransport) HandleMessage(ctx *Context, from NodeID, msg Message) {
	t.bind(ctx)
	switch m := msg.(type) {
	case *TransportMsg:
		ctx.Send(from, &TransportAck{Seq: m.Seq}) // ack every copy
		if !t.link(from).seen.add(m.Seq) {
			t.stats.Duplicates++
			return
		}
		t.inner.HandleMessage(t.shadow, from, m.Payload)
	case *TransportAck:
		l := t.known(from)
		if l == nil {
			return
		}
		e := l.entry(m.Seq)
		if e == nil {
			return // a copy's ack after the first, or a stranger's
		}
		*e = outEntry{}
		t.unacked--
		for l.out.Len() > 0 && l.out.At(0).frame == nil {
			l.out.PopFront()
		}
		// Dead schedule entries at either front go now rather than when
		// they fall due, so the schedule is empty whenever nothing is
		// outstanding. Dropping a dead entry early cannot reorder the live
		// ones.
		for t.first.Len() > 0 && !t.live(*t.first.At(0)) {
			t.first.PopFront()
		}
		for t.retries.Len() > 0 && !t.live(t.retries.Peek()) {
			t.retries.Pop()
		}
	default:
		t.inner.HandleMessage(t.shadow, from, msg)
	}
}

// live reports whether it still refers to an unacked payload.
func (t *ReliableTransport) live(it retryItem) bool {
	return t.links[it.to].entry(it.seq) != nil
}

// popDue removes and returns the schedule's earliest entry if it is due.
func (t *ReliableTransport) popDue() (retryItem, bool) {
	switch {
	case t.retries.Len() > 0 && (t.first.Len() == 0 || retryLess(t.retries.Peek(), *t.first.At(0))):
		if t.retries.Peek().due <= t.ticks {
			return t.retries.Pop(), true
		}
	case t.first.Len() > 0:
		if it := *t.first.At(0); it.due <= t.ticks {
			t.first.PopFront()
			return it, true
		}
	}
	return retryItem{}, false
}

// Activate implements Handler: due unacked payloads are retransmitted with
// doubled backoff, then the inner handler is activated.
func (t *ReliableTransport) Activate(ctx *Context) {
	t.bind(ctx)
	t.ticks++
	for {
		it, ok := t.popDue()
		if !ok {
			break
		}
		e := t.links[it.to].entry(it.seq)
		if e == nil {
			continue
		}
		ctx.Send(it.to, e.frame)
		t.stats.Retries++
		e.backoff = min(2*e.backoff, int64(t.cfg.MaxBackoffTicks))
		t.ord++
		t.retries.Push(retryItem{due: t.ticks + e.backoff, ord: t.ord, to: it.to, seq: it.seq})
	}
	t.inner.Activate(t.shadow)
}

// send implements the engine interface for the shadow context: the inner
// handler's sends go out bare on a lossless link and are otherwise framed,
// tracked and scheduled for retransmission.
func (t *ReliableTransport) send(from, to NodeID, msg Message) {
	l := t.link(to)
	if l.lossless {
		t.stats.Bypassed++
		t.outer.Send(to, msg)
		return
	}
	l.nextSeq++
	frame := &TransportMsg{Seq: l.nextSeq, Payload: msg}
	backoff := int64(t.cfg.RetryTicks)
	l.out.Push(outEntry{frame: frame, backoff: backoff})
	t.unacked++
	t.ord++
	t.first.Push(retryItem{due: t.ticks + backoff, ord: t.ord, to: to, seq: l.nextSeq})
	t.stats.Sent++
	t.outer.Send(to, frame)
}
