package netrun

// TCP plumbing: the connection handshake, length-prefixed frames, the
// accept loop for inbound peers and the per-peer session.
//
// Connections are unidirectional — the sending process dials, the owning
// process only reads — so each ordered pair of processes shares one FIFO
// byte stream. TCP already delivers that stream in order and intact; the
// only thing a process can lose is the tail of a stream when a connection
// resets. The session closes that gap, once per link instead of once per
// message:
//
//   - the sender counts its data frames. A frame carries no number: the
//     handshake states the stream position of the first frame that follows
//     it, and position is implicit from there;
//   - the sender keeps the encoded bytes it has written until the receiver
//     acknowledges them, and every (re)connect replays from the first
//     unacknowledged frame;
//   - the receiver keeps one next-position counter per peer and drops
//     replayed frames below it. A handshake from an incarnation it has no
//     history for (the peer restarted, or the receiver did) is adopted at
//     its stated position;
//   - the acknowledgement is cumulative and travels the other way: one
//     control frame that the reverse-direction writer puts in front of a
//     batch it is writing anyway, or that goes out alone as the heartbeat
//     when that direction is idle.
//
// Within one (sender incarnation, receiver incarnation) pair delivery is
// exactly-once and FIFO across any number of connection resets; across a
// receiver restart the unacknowledged tail is delivered at least once; a
// restarted sender starts a new stream at position 0.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpq/internal/hashutil"
	"dpq/internal/sim"
	"dpq/internal/wire"
)

const (
	magic        = uint32(0x44505157) // "DPQW"
	maxFrameSize = 1 << 24
	// handshake layout: magic u32, codec version u16, sender process id u32,
	// sender incarnation u64 (a timestamp drawn at Engine construction — a
	// restarted process presents a new one, which is how survivors tell a
	// crash-and-rejoin from a plain TCP reconnect), stream position u64 of
	// the first data frame that follows.
	handshakePrefix = 6 // magic and version: checked before the rest is read
	handshakeBytes  = 26
	// frameHeaderBytes is the per-frame body prefix: from, to, sender tick.
	frameHeaderBytes = 24
	// ctlFrameBytes is a whole control frame, length prefix included.
	ctlFrameBytes = 4 + frameHeaderBytes
	// readBufBytes sizes an inbound connection's read buffer: a saturated
	// peer writes whole batches of ~50-byte frames, everything one read
	// returns is enqueued under one lock acquisition, and a frame that fits
	// is decoded in place.
	readBufBytes = 64 << 10
	// flushTimeout bounds how long Close waits for a peer's unsent frames.
	flushTimeout = 2 * time.Second
)

// ctlFrom marks a control frame: a body of exactly frameHeaderBytes whose
// from field is -1. Its other two fields are the incarnation of the stream
// being acknowledged and the position up to which the writer of the frame
// has received it. Control frames are liveness evidence and session
// bookkeeping only: they have no stream position, are never retained or
// replayed, and never reach handlers or metrics.
const ctlFrom = int64(-1)

// appendFrame appends one length-prefixed data frame (u32 length, then
// body: from, to, sender tick, encoded message) to w. On error w is
// unchanged. Appending into the peer's long-lived writer keeps the send
// path allocation-free once its buffer is warm.
func appendFrame(w *wire.Writer, from, to sim.NodeID, tick int64, msg sim.Message) error {
	mark := len(w.Bytes())
	w.U32(0) // length, backpatched below
	w.I64(int64(from))
	w.I64(int64(to))
	w.I64(tick)
	if err := w.Marshal(msg); err != nil {
		w.Truncate(mark)
		return err
	}
	b := w.Bytes()
	binary.BigEndian.PutUint32(b[mark:], uint32(len(b)-mark-4))
	return nil
}

// putCtlFrame writes a control frame into b[:ctlFrameBytes].
func putCtlFrame(b []byte, incarnation, pos uint64) {
	from := ctlFrom // variable: -1 converts to uint64 at runtime only
	binary.BigEndian.PutUint32(b[0:], frameHeaderBytes)
	binary.BigEndian.PutUint64(b[4:], uint64(from))
	binary.BigEndian.PutUint64(b[12:], incarnation)
	binary.BigEndian.PutUint64(b[20:], pos)
}

// handshake opens a connection: who is sending, in which lifetime, and
// where in its stream to this receiver the first frame sits.
type handshake struct {
	proc        int
	incarnation uint64
	pos         uint64
}

func appendHandshake(dst []byte, h handshake) []byte {
	dst = binary.BigEndian.AppendUint32(dst, magic)
	dst = binary.BigEndian.AppendUint16(dst, wire.Version)
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.proc))
	dst = binary.BigEndian.AppendUint64(dst, h.incarnation)
	return binary.BigEndian.AppendUint64(dst, h.pos)
}

// readHandshake checks magic and version before reading on: an older
// version's handshake is shorter, and must be refused rather than completed
// with the first bytes of its frames.
func readHandshake(r io.Reader) (handshake, error) {
	var b [handshakeBytes]byte
	if _, err := io.ReadFull(r, b[:handshakePrefix]); err != nil {
		return handshake{}, err
	}
	if got := binary.BigEndian.Uint32(b[0:]); got != magic {
		return handshake{}, fmt.Errorf("netrun: bad handshake magic %#x", got)
	}
	if v := binary.BigEndian.Uint16(b[4:]); v != wire.Version {
		return handshake{}, fmt.Errorf("netrun: codec version mismatch: got %d, want %d", v, wire.Version)
	}
	if _, err := io.ReadFull(r, b[handshakePrefix:]); err != nil {
		return handshake{}, err
	}
	return handshake{
		proc:        int(binary.BigEndian.Uint32(b[6:])),
		incarnation: binary.BigEndian.Uint64(b[10:]),
		pos:         binary.BigEndian.Uint64(b[18:]),
	}, nil
}

// frame is one decoded inbound frame: a message for a local node, or —
// when ctl is set — the peer's cumulative acknowledgement.
type frame struct {
	env    inEnv
	ctl    bool
	ackInc uint64 // incarnation of the acknowledged stream
	ackPos uint64 // the peer holds every frame below this position
}

// frameReader decodes the frames of one inbound connection. A frame that
// fits the read buffer is decoded where it lies (Peek, then Discard) by the
// connection's one wire.Reader, so an inbound frame costs the allocations
// of its decoded message and nothing else — safe because decoding copies
// every value out of the body (wire strings are materialized with
// string(b)).
type frameReader struct {
	br      *bufio.Reader
	rd      wire.Reader
	scratch []byte // bodies larger than the read buffer only
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, readBufBytes)}
}

// next reads one frame into f.
func (fr *frameReader) next(f *frame) error {
	lenb, err := fr.br.Peek(4)
	if err != nil {
		if err == io.EOF && len(lenb) > 0 {
			err = io.ErrUnexpectedEOF // the stream ended inside a frame
		}
		return err
	}
	n := int(binary.BigEndian.Uint32(lenb))
	if n < frameHeaderBytes || n > maxFrameSize {
		return fmt.Errorf("netrun: implausible frame length %d", n)
	}
	if 4+n > fr.br.Size() {
		if cap(fr.scratch) < n {
			fr.scratch = make([]byte, n)
		}
		fr.br.Discard(4)
		if _, err := io.ReadFull(fr.br, fr.scratch[:n]); err != nil {
			return err
		}
		return fr.decode(fr.scratch[:n], f)
	}
	b, err := fr.br.Peek(4 + n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	err = fr.decode(b[4:], f)
	fr.br.Discard(4 + n)
	return err
}

// decode parses a frame body.
func (fr *frameReader) decode(body []byte, f *frame) error {
	r := &fr.rd
	r.Reset(body)
	from := r.I64()
	if len(body) == frameHeaderBytes && from == ctlFrom {
		*f = frame{ctl: true, ackInc: r.U64(), ackPos: r.U64()}
		return nil
	}
	*f = frame{env: inEnv{from: sim.NodeID(from)}}
	f.env.to = sim.NodeID(r.I64())
	f.env.senderTick = r.I64()
	f.env.msg = r.MustMessage()
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() > 0 {
		return fmt.Errorf("netrun: %d trailing bytes in frame", r.Remaining())
	}
	return nil
}

// buffered reports whether a complete frame is already in the read buffer,
// so that reading it cannot block.
func (fr *frameReader) buffered() bool {
	if fr.br.Buffered() < 4 {
		return false
	}
	lenb, _ := fr.br.Peek(4)
	return fr.br.Buffered()-4 >= int(binary.BigEndian.Uint32(lenb))
}

// acceptLoop admits inbound peer connections until the listener closes.
func (e *Engine) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				e.cfg.Logf("netrun: accept: %v", err)
			}
			return
		}
		e.connMu.Lock()
		e.conns[conn] = true
		e.connMu.Unlock()
		e.wg.Add(1)
		go e.serveConn(conn)
	}
}

// serveConn reads frames from one inbound peer connection and hands them
// to the peer's receive session. Any protocol violation closes the
// connection; the dialing side reconnects and replays.
func (e *Engine) serveConn(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.connMu.Lock()
		delete(e.conns, conn)
		e.connMu.Unlock()
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := newFrameReader(conn)
	hs, err := readHandshake(fr.br)
	if err == nil && (hs.proc < 0 || hs.proc >= len(e.peers) || e.peers[hs.proc] == nil) {
		err = fmt.Errorf("netrun: handshake from unknown process %d", hs.proc)
	}
	if err != nil {
		e.cfg.Logf("netrun: inbound handshake: %v", err)
		return
	}
	conn.SetReadDeadline(time.Time{})
	e.cfg.Logf("netrun: proc %d connected from %s at stream position %d", hs.proc, conn.RemoteAddr(), hs.pos)
	p := e.peers[hs.proc]
	gen, rejoined := p.rx.open(conn, hs)
	e.noteHandshake(hs.proc, hs.incarnation, rejoined)

	// Frames are decoded for as long as the read buffer holds complete
	// ones, then handed over together: one liveness note, one session lock
	// and one wake-up per buffered read, not per frame. batch holds the
	// stream positions pos-len(batch) .. pos-1 of this connection.
	pos := hs.pos
	var batch []inEnv
	var ack uint64 // highest acknowledgement of our own stream in this burst
	alive := false // a frame arrived since the last flush
	flush := func() bool {
		if alive {
			e.noteAlive(hs.proc)
			alive = false
		}
		if ack > 0 {
			p.acknowledge(ack)
			ack = 0
		}
		if len(batch) == 0 {
			return true
		}
		current := p.rx.deliver(e, gen, pos-uint64(len(batch)), batch)
		batch = recycleEnvs(batch)
		return current
	}
	defer flush()
	var f frame
	for {
		if !fr.buffered() && !flush() { // the next read may block
			return // superseded by a newer connection from the same peer
		}
		if err := fr.next(&f); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				e.cfg.Logf("netrun: read from proc %d: %v", hs.proc, err)
			}
			return
		}
		alive = true
		if f.ctl {
			// An acknowledgement addressed to a previous lifetime of this
			// process says nothing about the stream it sends now.
			if f.ackInc == e.incarnation && f.ackPos > ack {
				ack = f.ackPos
			}
			continue
		}
		if int(f.env.from) < 0 || int(f.env.from) >= len(e.cfg.Handlers) {
			// Handlers index per-peer state by sender id; an id outside the
			// network must not reach them.
			e.cfg.Logf("netrun: frame from unknown node %d (proc %d)", f.env.from, hs.proc)
			return
		}
		batch = append(batch, f.env)
		pos++
	}
}

// rxSession is the receive half of the session with one peer: where its
// stream to this process stands. Several connections from one peer can
// overlap briefly (the sender gave one up, its reader here has not noticed
// yet), so readers deliver under the lock and only the newest may.
type rxSession struct {
	mu      sync.Mutex
	conn    net.Conn // newest inbound connection
	gen     uint64   // its generation; older readers stop at their next flush
	inc     uint64   // sender incarnation of the stream (0: never heard from it)
	next    uint64   // position of the next frame to deliver
	skipped int64    // replayed frames dropped below next
	// What the reverse-direction writer last put in a control frame on its
	// current connection; an acknowledgement is due when (inc, next) moved
	// past it.
	sentInc, sentNext uint64
}

// open registers a new inbound connection and reports its generation and
// whether the handshake reveals a restarted peer.
func (r *rxSession) open(conn net.Conn, hs handshake) (gen uint64, rejoined bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn != nil {
		r.conn.Close() // the sender dials again only after giving this one up
	}
	r.conn = conn
	r.gen++
	if hs.incarnation != r.inc {
		// No history for this incarnation: a restarted sender starts a new
		// stream, and after our own restart the sender replays from its
		// first unacknowledged frame. Either way the stated position is where
		// delivery begins.
		rejoined = r.inc != 0
		r.inc, r.next = hs.incarnation, hs.pos
	}
	return r.gen, rejoined
}

// deliver enqueues a connection's decoded frames first, first+1, … minus
// the replayed ones this session already delivered. It reports false when a
// newer connection superseded gen: that connection is replayed everything
// not delivered here.
func (r *rxSession) deliver(e *Engine, gen, first uint64, batch []inEnv) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen != r.gen {
		return false
	}
	if first < r.next {
		skip := min(r.next-first, uint64(len(batch)))
		r.skipped += int64(skip)
		batch = batch[skip:]
		first += skip
	}
	if len(batch) > 0 {
		r.next = first + uint64(len(batch))
		// Under the lock, so that a superseding connection's frames cannot
		// overtake these in the inbox.
		e.enqueue(batch)
	}
	return true
}

// ackDue reports whether there is something to acknowledge that the last
// acknowledgement written did not say.
func (r *rxSession) ackDue() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dueLocked()
}

func (r *rxSession) dueLocked() bool {
	return r.next > 0 && (r.next != r.sentNext || r.inc != r.sentInc)
}

// ackToSend returns the acknowledgement to write now and whether it says
// anything new; the caller writes it if so (or anyway, as a heartbeat).
func (r *rxSession) ackToSend() (inc, next uint64, due bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	due = r.dueLocked()
	r.sentInc, r.sentNext = r.inc, r.next
	return r.inc, r.next, due
}

// forgetSent makes the next write carry an acknowledgement again: the
// connection that carried the last one is gone and may have lost it.
func (r *rxSession) forgetSent() {
	r.mu.Lock()
	r.sentInc, r.sentNext = 0, 0
	r.mu.Unlock()
}

// backoff is a seeded jittered exponential backoff: each step sleeps the
// current step halved plus a uniformly random top-up ("equal jitter").
// Seeding per ordered process pair makes the redial schedules of the many
// peers of one restarted process diverge instead of hammering it in
// lockstep.
type backoff struct {
	min, max time.Duration
	cur      time.Duration
	rng      *hashutil.Rand
}

func (b *backoff) reset() { b.cur = b.min }

// next returns the sleep before the following dial attempt and advances
// the exponential step.
func (b *backoff) next() time.Duration {
	if b.cur < b.min {
		b.cur = b.min
	}
	half := b.cur / 2
	d := half + time.Duration(b.rng.Uint64n(uint64(half)+1))
	b.cur *= 2
	if b.cur > b.max {
		b.cur = b.max
	}
	return d
}

const (
	// recycleFrameCap is the largest frame buffer the peer keeps for reuse;
	// anything bigger (a burst) is dropped for the GC so it cannot pin
	// memory.
	recycleFrameCap = 1 << 20
	// maxFreeBufs bounds the recycled buffers a peer keeps: one being
	// filled, one being written and one awaiting its acknowledgement is the
	// steady state.
	maxFreeBufs = 4
	// probeTicks is how many ticks a link without a heartbeat lets written
	// frames sit unacknowledged before the tick loop has a control frame
	// written: a connection that died quietly only shows at the next write.
	probeTicks = 64
)

// batch is a run of consecutive data frames the writer took from the
// pending buffer in one piece. buf starts with ctlFrameBytes of headroom,
// so a control frame can be written in front of the frames with the same
// write call.
type batch struct {
	buf   []byte
	first uint64 // stream position of its first frame
	n     int    // data frames
}

func (b batch) end() uint64 { return b.first + uint64(b.n) }

// LinkStats counts what the sessions with peer processes did. On a link
// that never lost a connection Replayed and Skipped stay 0.
type LinkStats struct {
	Frames      int64 `json:"frames"`      // data frames handed to the link
	Acks        int64 `json:"acks"`        // control frames written: cumulative acks, alone or ahead of a batch
	Replayed    int64 `json:"replayed"`    // frames written again after a reconnect
	Skipped     int64 `json:"skipped"`     // inbound replayed frames dropped as already delivered
	RetainedMax int64 `json:"retainedMax"` // high-water mark of bytes held for replay (summing: the largest link's)
}

// add accumulates another link's counters.
func (s *LinkStats) add(o LinkStats) {
	s.Frames += o.Frames
	s.Acks += o.Acks
	s.Replayed += o.Replayed
	s.Skipped += o.Skipped
	s.RetainedMax = max(s.RetainedMax, o.RetainedMax)
}

// peer is the session with one remote process. The send half is a
// contiguous buffer of pending length-prefixed frames that senders encode
// into under the peer lock, a writer goroutine that takes it whole (one
// conn.Write per batch, against a recycled spare), and the batches taken
// but not yet acknowledged, which every (re)connect replays. The receive
// half is rx. Steady state allocates nothing.
type peer struct {
	proc int
	addr string

	// dirty marks a peer the engine's run goroutine has handed frames
	// without waking the writer yet (Engine.flushPeers); ackSeen and stale
	// are its probe bookkeeping (tickOffer). Owned by that goroutine.
	dirty   bool
	ackSeen uint64
	stale   int

	mu       sync.Mutex
	cond     *sync.Cond
	w        wire.Writer // headroom, then the frames awaiting their first write
	pendingN int         // data frames in w
	taken    uint64      // frames the writer has taken: the position of w's first
	acked    uint64      // the receiver holds every frame below this position
	retained []batch     // taken and not yet acknowledged, in stream order
	held     int         // bytes in retained
	heldMax  int
	// writing is set while the writer is outside take and may be reading
	// retained buffers; an acknowledgement arriving then is recorded and the
	// buffers are recycled at the writer's next take.
	writing bool
	ctlDue  bool // a control frame is due even with nothing pending
	free    [][]byte
	closed  bool

	rx rxSession

	// Owned by the writer goroutine.
	bo       backoff
	conn     net.Conn
	closing  bool      // the engine is shutting down: flush, bounded by deadline
	deadline time.Time // flush deadline once closing
	written  uint64    // frames below this position have been written at least once
	ctl      [ctlFrameBytes]byte
	replay   [][]byte
	acks     atomic.Int64 // control frames written
	replayed atomic.Int64
}

var headroom [ctlFrameBytes]byte

func newPeer(proc int, addr string, min, max time.Duration, seed uint64) *peer {
	p := &peer{proc: proc, addr: addr, bo: backoff{min: min, max: max, cur: min, rng: hashutil.NewRand(seed)}}
	p.cond = sync.NewCond(&p.mu)
	p.w.Swap(append([]byte(nil), headroom[:]...))
	return p
}

// enqueueMsg frames msg directly into the pending buffer; waking the writer
// (p.cond.Signal) is the caller's business. Unregistered message types
// panic — a registration gap is a build defect, caught by the wire
// inventory test.
func (p *peer) enqueueMsg(from, to sim.NodeID, tick int64, msg sim.Message) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if err := appendFrame(&p.w, from, to, tick, msg); err != nil {
		p.mu.Unlock()
		panic(fmt.Sprintf("netrun: %v", err))
	}
	p.pendingN++
	p.mu.Unlock()
}

// offerCtl asks the writer for a control frame, but only when the pending
// buffer is idle: a batch about to be written carries the acknowledgement
// itself and is liveness evidence, and a writer stuck redialing must not be
// woken for nothing.
func (p *peer) offerCtl() {
	p.mu.Lock()
	offer := !p.closed && p.pendingN == 0 && !p.ctlDue
	if offer {
		p.ctlDue = true
	}
	p.mu.Unlock()
	if offer {
		p.cond.Signal()
	}
}

// tickOffer is the engine's per-tick look at a link that has no heartbeat
// to carry its acknowledgements: a control frame is offered when the
// inbound stream advanced past the last acknowledgement written, or when
// written frames have gone unacknowledged for probeTicks. Run goroutine
// only.
func (p *peer) tickOffer() {
	p.mu.Lock()
	acked, waiting := p.acked, len(p.retained) > 0
	p.mu.Unlock()
	if !waiting || acked != p.ackSeen {
		p.ackSeen, p.stale = acked, 0
	} else if p.stale++; p.stale >= probeTicks {
		p.stale = 0
		p.offerCtl()
		return
	}
	if p.rx.ackDue() {
		p.offerCtl()
	}
}

// acknowledge records the receiver's cumulative acknowledgement of this
// peer's outbound stream and releases what it covers.
func (p *peer) acknowledge(pos uint64) {
	p.mu.Lock()
	if pos > p.acked && pos <= p.taken { // beyond taken: a position never written
		p.acked = pos
		if !p.writing {
			p.trimLocked()
		}
	}
	p.mu.Unlock()
}

// trimLocked recycles the retained batches that are acknowledged in full.
func (p *peer) trimLocked() {
	k := 0
	for k < len(p.retained) && p.retained[k].end() <= p.acked {
		b := p.retained[k]
		p.held -= len(b.buf) - ctlFrameBytes
		if cap(b.buf) <= recycleFrameCap && len(p.free) < maxFreeBufs {
			p.free = append(p.free, b.buf)
		}
		k++
	}
	if k > 0 {
		n := copy(p.retained, p.retained[k:])
		clear(p.retained[n:])
		p.retained = p.retained[:n]
	}
}

func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// take blocks until frames are pending, a control frame is due or the peer
// closes, then moves the whole pending buffer to the retained queue and
// returns it (n == 0 when only a control frame is due). ok is false when
// the peer closed with nothing left to write.
func (p *peer) take() (b batch, ctlDue, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writing = false
	p.trimLocked()
	for p.pendingN == 0 && !p.ctlDue && !p.closed {
		p.cond.Wait()
	}
	p.closing = p.closing || p.closed
	if p.pendingN == 0 && !p.ctlDue {
		return batch{}, false, false
	}
	ctlDue, p.ctlDue = p.ctlDue, false
	p.writing = true
	if p.pendingN == 0 {
		return batch{}, ctlDue, true
	}
	var spare []byte
	if n := len(p.free); n > 0 {
		spare, p.free = p.free[n-1], p.free[:n-1]
	}
	b = batch{buf: p.w.Swap(append(spare[:0], headroom[:]...)), first: p.taken, n: p.pendingN}
	p.taken, p.pendingN = b.end(), 0
	p.retained = append(p.retained, b)
	p.held += len(b.buf) - ctlFrameBytes
	p.heldMax = max(p.heldMax, p.held)
	return b, ctlDue, true
}

// run is the peer's writer goroutine.
func (p *peer) run(e *Engine) {
	defer e.wg.Done()
	defer func() {
		if p.conn != nil {
			p.conn.Close()
		}
	}()
	for {
		b, hb, ok := p.take()
		if !ok {
			return // closed and drained
		}
		if p.closing && p.deadline.IsZero() {
			p.deadline = time.Now().Add(flushTimeout)
		}
		if !p.send(e, b, hb) {
			return
		}
	}
}

// send gets one taken batch (and, if hb, a control frame) onto a
// connection, (re)connecting as often as it takes. It returns false when
// the engine shut down first.
func (p *peer) send(e *Engine, b batch, hb bool) bool {
	for {
		// A fresh connection has carried b already: it is retained, and
		// everything retained goes out behind the handshake.
		fresh := p.conn == nil
		if fresh && !p.connect(e) {
			return false
		}
		// The acknowledgement of the inbound stream rides in front of the
		// batch when it has news, or alone when nothing else is due.
		inc, pos, due := p.rx.ackToSend()
		var out []byte
		switch {
		case fresh || b.n == 0:
			if !due && !hb {
				return true
			}
			out = p.ctl[:]
		case due || hb:
			out = b.buf
		default:
			out = b.buf[ctlFrameBytes:]
		}
		if due || hb {
			putCtlFrame(out, inc, pos)
			p.acks.Add(1)
		}
		if p.closing {
			p.conn.SetWriteDeadline(p.deadline)
		}
		// out is a contiguous length-prefixed frame stream: one write call,
		// no per-frame copies.
		_, err := p.conn.Write(out)
		p.written = max(p.written, b.end())
		if err == nil {
			p.bo.reset()
			return true
		}
		e.cfg.Logf("netrun: write to proc %d: %v", p.proc, err)
		p.conn.Close()
		p.conn = nil
		if p.closing {
			return false
		}
		// Whatever part of the batch arrived, it stays retained until it is
		// acknowledged, and the next connection replays it.
	}
}

// connect dials until a connection has taken the handshake and the replay
// of everything retained. It returns false when the engine shut down and
// the flush deadline passed first.
func (p *peer) connect(e *Engine) bool {
	for {
		if p.closing {
			// Shutdown flushes frames, bounded by the deadline; a connection
			// is not worth opening for a control frame alone.
			p.mu.Lock()
			owed := p.held + len(p.w.Bytes()) - ctlFrameBytes
			p.mu.Unlock()
			if owed == 0 {
				return false
			}
			if time.Now().After(p.deadline) {
				e.cfg.Logf("netrun: dropping %d unacknowledged frame bytes for proc %d at shutdown", owed, p.proc)
				return false
			}
		}
		c, err := net.DialTimeout("tcp", p.addr, time.Second)
		if err == nil {
			if err = p.resume(e, c); err == nil {
				p.conn = c
				return true
			}
			c.Close()
		}
		e.noteRedial(p.proc)
		sleep := p.bo.next()
		e.cfg.Logf("netrun: dial proc %d (%s): %v (retry in %v)", p.proc, p.addr, err, sleep)
		if p.closing {
			// stop has already fired, so the interruptible sleep would
			// return immediately and spin the dial loop; sleep plainly,
			// bounded by the flush deadline.
			if d := min(sleep, time.Until(p.deadline)); d > 0 {
				time.Sleep(d)
			}
		} else if !sleepInterruptible(sleep, e.stop) {
			// Engine stopping: switch to flush mode.
			p.closing = true
			p.deadline = time.Now().Add(flushTimeout)
		}
	}
}

// resume opens the session on a fresh connection: the handshake states the
// first unacknowledged position, and every retained frame from there on
// follows it. The backoff is NOT reset by a bare handshake: a peer that
// accepts the dial but fails every write (half-dead, or dying between
// accept and read) would otherwise be redialed at the floor interval
// forever. Reset happens after the first successful frame write.
func (p *peer) resume(e *Engine, c net.Conn) error {
	p.mu.Lock()
	p.trimLocked() // the writer is between writes
	pos := p.acked
	bufs := p.replay[:0]
	for i, b := range p.retained {
		frames := b.buf[ctlFrameBytes:]
		if i == 0 {
			// The batch the acknowledgement stopped in: skip what it covers.
			for k := b.first; k < pos; k++ {
				frames = frames[4+binary.BigEndian.Uint32(frames):]
			}
		}
		bufs = append(bufs, frames)
	}
	again := int64(p.written) - int64(pos) // frames in the replay that were written before
	p.mu.Unlock()
	p.replay = bufs // buffers stay valid: writing is set, so nothing recycles them

	if p.closing {
		c.SetWriteDeadline(p.deadline)
	}
	if _, err := c.Write(appendHandshake(p.ctl[:0], handshake{proc: e.cfg.Proc, incarnation: e.incarnation, pos: pos})); err != nil {
		return err
	}
	for _, frames := range bufs {
		if _, err := c.Write(frames); err != nil {
			return err
		}
	}
	clear(bufs)
	if again > 0 {
		p.replayed.Add(again)
		e.cfg.Logf("netrun: replayed %d frames to proc %d from stream position %d", again, p.proc, pos)
	}
	if len(bufs) > 0 {
		p.bo.reset()
	}
	p.written = p.taken
	p.rx.forgetSent()
	return nil
}

// stats snapshots the link's counters.
func (p *peer) stats() LinkStats {
	p.mu.Lock()
	s := LinkStats{Frames: int64(p.taken) + int64(p.pendingN), RetainedMax: int64(p.heldMax)}
	p.mu.Unlock()
	p.rx.mu.Lock()
	s.Skipped = p.rx.skipped
	p.rx.mu.Unlock()
	s.Acks, s.Replayed = p.acks.Load(), p.replayed.Load()
	return s
}

// sleepInterruptible sleeps for d unless stop closes first; it reports
// whether the full duration elapsed.
func sleepInterruptible(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
