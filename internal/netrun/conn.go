package netrun

// TCP plumbing: the connection handshake, length-prefixed frames, the
// accept loop for inbound peers and the per-peer writer with exponential
// reconnect backoff. Connections are unidirectional — the sending process
// dials, the owning process only reads — so each ordered pair of processes
// shares one FIFO byte stream and per-sender frame order is preserved
// (the property the per-node trace monotonicity check relies on).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dpq/internal/hashutil"
	"dpq/internal/sim"
	"dpq/internal/wire"
)

// handshake layout: magic, codec version, sender process id, sender
// incarnation (a timestamp drawn at Engine construction — a restarted
// process presents a new incarnation, which is how survivors distinguish a
// crash-and-rejoin from a plain TCP reconnect).
const (
	magic          = uint32(0x44505157) // "DPQW"
	maxFrameSize   = 1 << 24
	handshakeBytes = 18
	// frameHeader is the per-frame body prefix: from, to, sender tick.
	frameHeaderBytes = 24
	// readBufBytes sizes an inbound connection's read buffer: a saturated
	// peer writes whole batches of ~50-byte frames, and everything one read
	// returns is enqueued under one lock acquisition.
	readBufBytes = 64 << 10
)

// heartbeatFrom marks a heartbeat frame: a body of exactly
// frameHeaderBytes whose from field is -1. Heartbeats are liveness
// evidence for the failure detector only — they are intercepted before
// decoding and never reach handlers or metrics.
const heartbeatFrom = int64(-1)

// appendFrame appends one length-prefixed frame (u32 length, then body:
// from, to, sender tick, encoded message) to dst. On error dst is returned
// unchanged. Appending into the peer's pending buffer keeps the send path
// allocation-free once the buffer is warm.
func appendFrame(dst []byte, from, to sim.NodeID, tick int64, msg sim.Message) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backpatched below
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(from)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(to)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(tick))
	out, err := wire.MarshalAppend(dst, msg)
	if err != nil {
		return dst[:mark], err
	}
	binary.BigEndian.PutUint32(out[mark:], uint32(len(out)-mark-4))
	return out, nil
}

// encodeFrame builds a frame body (no length prefix). Unregistered message
// types panic — a registration gap is a build defect, caught by the wire
// inventory test.
func encodeFrame(from, to sim.NodeID, tick int64, msg sim.Message) []byte {
	b, err := appendFrame(nil, from, to, tick, msg)
	if err != nil {
		panic(fmt.Sprintf("netrun: %v", err))
	}
	return b[4:]
}

// decodeFrame parses a frame body.
func decodeFrame(body []byte) (inEnv, error) {
	r := wire.NewReader(body)
	env := inEnv{}
	env.from = sim.NodeID(r.I64())
	env.to = sim.NodeID(r.I64())
	env.senderTick = r.I64()
	env.msg = r.MustMessage()
	if err := r.Err(); err != nil {
		return inEnv{}, err
	}
	if r.Remaining() > 0 {
		return inEnv{}, fmt.Errorf("netrun: %d trailing bytes in frame", r.Remaining())
	}
	return env, nil
}

func writeHandshake(w io.Writer, proc int, incarnation uint64) error {
	var b [handshakeBytes]byte
	binary.BigEndian.PutUint32(b[0:], magic)
	binary.BigEndian.PutUint16(b[4:], wire.Version)
	binary.BigEndian.PutUint32(b[6:], uint32(proc))
	binary.BigEndian.PutUint64(b[10:], incarnation)
	_, err := w.Write(b[:])
	return err
}

func readHandshake(r io.Reader) (proc int, incarnation uint64, err error) {
	var b [handshakeBytes]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, 0, err
	}
	if got := binary.BigEndian.Uint32(b[0:]); got != magic {
		return 0, 0, fmt.Errorf("netrun: bad handshake magic %#x", got)
	}
	if v := binary.BigEndian.Uint16(b[4:]); v != wire.Version {
		return 0, 0, fmt.Errorf("netrun: codec version mismatch: got %d, want %d", v, wire.Version)
	}
	return int(binary.BigEndian.Uint32(b[6:])), binary.BigEndian.Uint64(b[10:]), nil
}

// readFrameInto reads one length-prefixed frame body, reusing *scratch as
// the destination buffer when it is large enough. The returned slice
// aliases *scratch and is only valid until the next call — safe because
// decodeFrame copies every decoded value out of the body (wire strings are
// materialized with string(b)).
func readFrameInto(r io.Reader, scratch *[]byte) ([]byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n < frameHeaderBytes || n > maxFrameSize {
		return nil, fmt.Errorf("netrun: implausible frame length %d", n)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	body := (*scratch)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
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

// serveConn reads frames from one inbound peer connection and enqueues
// them for delivery. Any protocol violation closes the connection; the
// dialing side reconnects.
func (e *Engine) serveConn(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.connMu.Lock()
		delete(e.conns, conn)
		e.connMu.Unlock()
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReaderSize(conn, readBufBytes)
	peerProc, peerInc, err := readHandshake(br)
	if err != nil {
		e.cfg.Logf("netrun: inbound handshake: %v", err)
		return
	}
	conn.SetReadDeadline(time.Time{})
	e.cfg.Logf("netrun: proc %d connected from %s", peerProc, conn.RemoteAddr())
	e.noteHandshake(peerProc, peerInc)
	var scratch []byte // per-connection read buffer, reused across frames
	// Frames are decoded for as long as the read buffer holds complete
	// ones, then handed over together: one liveness note, one inbox lock
	// and one wake-up per buffered read, not per frame.
	var batch []inEnv
	alive := false // a frame arrived since the last flush
	flush := func() {
		if alive {
			e.noteAlive(peerProc)
			alive = false
		}
		if len(batch) > 0 {
			e.enqueue(batch)
			batch = recycleEnvs(batch)
		}
	}
	defer flush()
	for {
		if !frameBuffered(br) {
			flush() // the next read may block
		}
		body, err := readFrameInto(br, &scratch)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				e.cfg.Logf("netrun: read from proc %d: %v", peerProc, err)
			}
			return
		}
		alive = true
		if len(body) == frameHeaderBytes && int64(binary.BigEndian.Uint64(body)) == heartbeatFrom {
			continue // liveness-only heartbeat, nothing to deliver
		}
		env, err := decodeFrame(body)
		if err == nil && (int(env.from) < 0 || int(env.from) >= len(e.cfg.Handlers)) {
			// Handlers index per-peer state by sender id; an id outside the
			// network must not reach them.
			err = fmt.Errorf("netrun: frame from unknown node %d", env.from)
		}
		if err != nil {
			e.cfg.Logf("netrun: bad frame from proc %d: %v", peerProc, err)
			return
		}
		batch = append(batch, env)
	}
}

// frameBuffered reports whether br holds a complete frame, so that reading
// it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	lenb, _ := br.Peek(4)
	return br.Buffered()-4 >= int(binary.BigEndian.Uint32(lenb))
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

// recycleFrameCap is the largest pending buffer the peer keeps for reuse;
// anything bigger (a burst) is dropped for the GC so it cannot pin memory.
const recycleFrameCap = 1 << 20

// peer is the outbound side toward one remote process: a contiguous
// length-prefixed byte buffer of pending frames, drained by a writer
// goroutine that (re)dials with jittered exponential backoff. Senders
// encode directly into the buffer under the peer lock and the writer swaps
// it against a recycled spare, so the steady-state send path allocates
// nothing and each drain is one conn.Write. On a write error the unwritten
// batch is requeued, so frames can be duplicated across reconnects —
// sim.ReliableTransport (or an idempotent protocol) absorbs that.
type peer struct {
	proc int
	addr string
	bo   backoff // owned by the writer goroutine

	// dirty marks a peer the engine's run goroutine has handed frames
	// without waking the writer yet (Engine.flushPeers); owned by that
	// goroutine.
	dirty bool

	mu      sync.Mutex
	cond    *sync.Cond
	pending []byte // length-prefixed frames awaiting write
	spare   []byte // recycled drained buffer (len 0)
	closed  bool
}

func newPeer(proc int, addr string, min, max time.Duration, seed uint64) *peer {
	p := &peer{proc: proc, addr: addr, bo: backoff{min: min, max: max, cur: min, rng: hashutil.NewRand(seed)}}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// enqueueMsg frames msg directly into the pending buffer; waking the writer
// (p.cond.Signal) is the caller's business. Unregistered message types
// panic, matching encodeFrame.
func (p *peer) enqueueMsg(from, to sim.NodeID, tick int64, msg sim.Message) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	buf, err := appendFrame(p.pending, from, to, tick, msg)
	if err != nil {
		p.mu.Unlock()
		panic(fmt.Sprintf("netrun: %v", err))
	}
	p.pending = buf
	p.mu.Unlock()
}

// enqueueHeartbeat appends one heartbeat frame, but only when the pending
// buffer is idle: real frames are themselves liveness evidence, and a down
// peer must not accumulate an unbounded heartbeat backlog (at most one
// heartbeat waits in pending while the writer is stuck redialing).
func (p *peer) enqueueHeartbeat(tick int64) {
	p.mu.Lock()
	if p.closed || len(p.pending) > 0 {
		p.mu.Unlock()
		return
	}
	var b [4 + frameHeaderBytes]byte
	binary.BigEndian.PutUint32(b[0:], frameHeaderBytes)
	hb := heartbeatFrom // variable: -1 converts to uint64 at runtime only
	binary.BigEndian.PutUint64(b[4:], uint64(hb))
	binary.BigEndian.PutUint64(b[12:], uint64(hb))
	binary.BigEndian.PutUint64(b[20:], uint64(tick))
	p.pending = append(p.pending, b[:]...)
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// waitBatch blocks until frames are pending or the peer closes, then takes
// the whole pending buffer. It returns nil only when closed with nothing
// pending.
func (p *peer) waitBatch() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.pending) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.pending) == 0 {
		return nil
	}
	batch := p.pending
	p.pending = p.spare
	p.spare = nil
	return batch
}

// requeue pushes an unwritten batch back in front of whatever was enqueued
// meanwhile (error path only).
func (p *peer) requeue(batch []byte) {
	p.mu.Lock()
	p.pending = append(batch, p.pending...)
	p.mu.Unlock()
}

// recycle hands a drained buffer back for reuse.
func (p *peer) recycle(batch []byte) {
	if cap(batch) > recycleFrameCap {
		return
	}
	p.mu.Lock()
	if p.spare == nil {
		p.spare = batch[:0]
	}
	p.mu.Unlock()
}

// run is the peer's writer goroutine.
func (p *peer) run(e *Engine) {
	defer e.wg.Done()
	var conn net.Conn
	deadline := time.Time{} // flush deadline once closing
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		batch := p.waitBatch()
		if batch == nil {
			return // closed and drained
		}
		p.mu.Lock()
		closing := p.closed
		p.mu.Unlock()
		if closing && deadline.IsZero() {
			deadline = time.Now().Add(e.cfg.FlushTimeout)
		}
		for conn == nil {
			if closing && time.Now().After(deadline) {
				e.cfg.Logf("netrun: dropping %d unsent frame bytes for proc %d at shutdown", len(batch), p.proc)
				return
			}
			c, err := net.DialTimeout("tcp", p.addr, time.Second)
			if err == nil {
				if err = writeHandshake(c, e.cfg.Proc, e.incarnation); err == nil {
					conn = c
					// The backoff is NOT reset here: a peer that accepts the
					// dial but fails every write (half-dead, or dying between
					// accept and read) would otherwise be redialed at the
					// floor interval forever. Reset happens after the first
					// successful write below.
					break
				}
				c.Close()
			}
			e.noteRedial(p.proc)
			sleep := p.bo.next()
			e.cfg.Logf("netrun: dial proc %d (%s): %v (retry in %v)", p.proc, p.addr, err, sleep)
			if closing {
				// stop has already fired, so the interruptible sleep would
				// return immediately and spin the dial loop; sleep plainly,
				// bounded by the flush deadline.
				if d := min(sleep, time.Until(deadline)); d > 0 {
					time.Sleep(d)
				}
			} else if !sleepInterruptible(sleep, e.stop) {
				// Engine stopping: switch to flush mode.
				closing = true
				deadline = time.Now().Add(e.cfg.FlushTimeout)
			}
		}
		if closing {
			conn.SetWriteDeadline(deadline)
		}
		// batch is already a contiguous length-prefixed frame stream: one
		// write call, no per-frame copies.
		_, err := conn.Write(batch)
		if err != nil {
			e.cfg.Logf("netrun: write to proc %d: %v", p.proc, err)
			conn.Close()
			conn = nil
			if closing {
				return
			}
			p.requeue(batch)
		} else {
			p.bo.reset()
			p.recycle(batch)
		}
	}
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
