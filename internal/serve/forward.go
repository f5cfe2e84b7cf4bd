// AckForwarder replicates acks between daemons. The distributed heap can
// deliver an element to a client of any daemon, but the element's WAL
// records live where its insert was accepted — the serving daemon forwards
// the ack to that owner over the ordinary client protocol and completes
// the client's ack only after the owner reports it durable. Connections
// are dialed lazily, pipelined (a burst of acks shares one write), and
// redialed after failures; a forward outstanding on a broken connection
// fails (the element's lease then expires into a redelivery, never a loss).
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/prio"
)

// ErrAckParked is the sentinel completion of a Forward whose owner daemon
// is marked down: the ack was queued for replay on the owner's recovery
// rather than sent. The caller keeps the lease in a parked state and
// answers the client retryably (StatusUnavailable).
var ErrAckParked = errors.New("serve: ack parked until the owner daemon recovers")

// maxParkedPerOwner bounds one down owner's parked-ack queue; overflow is
// shed with a plain error (the lease then expires into a redelivery).
const maxParkedPerOwner = 1024

// DefaultForwardTimeout bounds how long one forwarded ack may stay
// unanswered before it fails and the peer connection is dropped. Without
// it a stalled owner (half-open TCP, wedged daemon) would keep the lease
// settling forever: expiry skips settling leases, so the element would
// neither settle nor redeliver until the socket happened to break.
const DefaultForwardTimeout = 10 * time.Second

// AckForwarder sends acks to the owning peers of foreign elements. Its
// Forward method matches the PeerAck hook in Config.
type AckForwarder struct {
	// Timeout overrides DefaultForwardTimeout when positive; set before
	// the first Forward.
	Timeout time.Duration
	// OnParkFlush, when set, observes the terminal outcome of each parked
	// ack once a recovery flush attempts it: nil error means the owner has
	// the ack durable. Re-parks (the owner went down again mid-flush) are
	// not terminal and are not reported. Set before the first Forward.
	OnParkFlush func(owner int, id prio.ElemID, err error)

	addrs []string
	// dial opens the connection to an owner; tests substitute a counting
	// connection.
	dial func(addr string) (net.Conn, error)

	mu     sync.Mutex
	peers  map[int]*peerConn
	down   map[int]bool
	parked map[int][]prio.ElemID // FIFO replay queue per down owner
	inPark map[int]map[prio.ElemID]bool
	shed   int64
	closed bool
}

// peerConn is the lazily-dialed connection to one peer daemon. Forward
// registers a call and queues its request; a writer goroutine per owner
// drains the queue with one flush per burst, not per ack, and one timer per
// owner watches the oldest outstanding call.
type peerConn struct {
	owner   int
	timeout time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	conn   net.Conn
	bw     *bufio.Writer // the writer goroutine's, for conn
	queue  []fwdReq      // registered, not yet written
	spare  []fwdReq
	next   uint64
	calls  map[uint64]fwdCall
	oldest uint64 // no outstanding call has a smaller request id
	// watchdog fires at the deadline of the oldest outstanding call; armed
	// says whether it is set. Deadlines are uniform, so calls expire in
	// request order and one timer covers them all.
	watchdog *time.Timer
	armed    bool
	closed   bool
}

// fwdReq is one queued ack request.
type fwdReq struct {
	reqID uint64
	id    prio.ElemID
}

// fwdCall is one outstanding forward: its completion callback and when it
// fails if the owner has not answered.
type fwdCall struct {
	done     func(error)
	deadline time.Time
}

// NewAckForwarder builds a forwarder over the daemons' client addresses
// (indexed by process, the same order as the cluster's peer list).
func NewAckForwarder(addrs []string) *AckForwarder {
	return &AckForwarder{
		addrs:  addrs,
		dial:   func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) },
		peers:  map[int]*peerConn{},
		down:   map[int]bool{},
		parked: map[int][]prio.ElemID{},
		inPark: map[int]map[prio.ElemID]bool{},
	}
}

// SetPeerDown marks one owner daemon down or up. While down, forwards to
// it are parked (bounded, deduplicated by element id) instead of dialed;
// marking it up replays the parked queue in order, reporting each ack's
// terminal outcome through OnParkFlush.
func (f *AckForwarder) SetPeerDown(owner int, down bool) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	if down {
		f.down[owner] = true
		f.mu.Unlock()
		return
	}
	delete(f.down, owner)
	ids := f.parked[owner]
	delete(f.parked, owner)
	delete(f.inPark, owner)
	cb := f.OnParkFlush
	f.mu.Unlock()
	if len(ids) == 0 {
		return
	}
	go func() {
		for _, id := range ids {
			ch := make(chan error, 1)
			f.Forward(owner, id, func(err error) { ch <- err })
			err := <-ch
			if errors.Is(err, ErrAckParked) {
				continue // owner went down again; the ack is queued anew
			}
			if cb != nil {
				cb(owner, id, err)
			}
		}
	}()
}

// Shed returns how many parked acks were dropped at the queue cap.
func (f *AckForwarder) Shed() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shed
}

// ParkedCount returns how many acks are currently parked for owner.
func (f *AckForwarder) ParkedCount(owner int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.parked[owner])
}

// Forward replicates the ack of id to the owner daemon and calls done with
// nil once the owner acknowledged (its response is durability-gated), or
// with the failure. done may be called synchronously on dial errors. A
// forward unanswered past the deadline fails and drops the connection —
// the ack's fate at the owner is then unknown, which is safe: the caller
// keeps the lease and the element redelivers, never disappears.
func (f *AckForwarder) Forward(owner int, id prio.ElemID, done func(error)) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		done(fmt.Errorf("ack forwarder closed"))
		return
	}
	if owner < 0 || owner >= len(f.addrs) {
		f.mu.Unlock()
		done(fmt.Errorf("element %d owned by unknown process %d", id, owner))
		return
	}
	if f.down[owner] {
		if f.inPark[owner][id] {
			f.mu.Unlock()
			done(ErrAckParked) // already queued; the client keeps retrying
			return
		}
		if len(f.parked[owner]) >= maxParkedPerOwner {
			f.shed++
			f.mu.Unlock()
			done(fmt.Errorf("parked-ack queue for owner %d is full", owner))
			return
		}
		if f.inPark[owner] == nil {
			f.inPark[owner] = map[prio.ElemID]bool{}
		}
		f.inPark[owner][id] = true
		f.parked[owner] = append(f.parked[owner], id)
		f.mu.Unlock()
		done(ErrAckParked)
		return
	}
	p := f.peers[owner]
	if p == nil {
		timeout := f.Timeout
		if timeout <= 0 {
			timeout = DefaultForwardTimeout
		}
		p = &peerConn{owner: owner, timeout: timeout, calls: map[uint64]fwdCall{}}
		p.cond = sync.NewCond(&p.mu)
		p.watchdog = time.AfterFunc(timeout, p.checkDeadline)
		p.watchdog.Stop()
		f.peers[owner] = p
		go p.writeLoop()
	}
	addr := f.addrs[owner]
	f.mu.Unlock()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		done(fmt.Errorf("ack forwarder closed"))
		return
	}
	if p.conn == nil {
		conn, err := f.dial(addr)
		if err != nil {
			p.mu.Unlock()
			done(fmt.Errorf("dial owner %d: %v", owner, err))
			return
		}
		p.conn = conn
		p.bw = bufio.NewWriter(conn)
		go p.readLoop(conn)
	}
	p.next++
	p.calls[p.next] = fwdCall{done: done, deadline: time.Now().Add(p.timeout)}
	p.queue = append(p.queue, fwdReq{reqID: p.next, id: id})
	if !p.armed {
		p.armed = true
		p.watchdog.Reset(p.timeout)
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// writeLoop drains the request queue onto the current connection: every
// request queued while the previous burst was being written goes out under
// one flush. It exits when the forwarder closes.
func (p *peerConn) writeLoop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			return
		}
		// A drop empties the queue, so what is queued belongs to p.conn.
		batch, conn, bw := p.queue, p.conn, p.bw
		p.queue = p.spare[:0]
		p.mu.Unlock()
		var err error
		for _, r := range batch {
			if err = clientproto.WriteRequest(bw, &clientproto.Request{ReqID: r.reqID, Op: clientproto.OpAck, ID: uint64(r.id)}); err != nil {
				break
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		p.mu.Lock()
		p.spare = batch
		if err != nil && p.conn == conn {
			p.dropLocked(fmt.Errorf("forward to owner %d: %v", p.owner, err))
		}
	}
}

// checkDeadline is the watchdog: it fails the oldest outstanding forward if
// its deadline passed without a response, and otherwise re-arms for it. The
// connection is dropped too: responses are matched by pipeline order, so
// after an unanswered request the stream's state is unknowable and every
// later outstanding call fails with it (they redial fresh).
func (p *peerConn) checkDeadline() {
	p.mu.Lock()
	for p.oldest <= p.next {
		if _, ok := p.calls[p.oldest]; ok {
			break
		}
		p.oldest++
	}
	c, ok := p.calls[p.oldest]
	if !ok {
		p.armed = false
		p.mu.Unlock()
		return
	}
	if wait := time.Until(c.deadline); wait > 0 {
		p.watchdog.Reset(wait)
		p.mu.Unlock()
		return
	}
	delete(p.calls, p.oldest)
	p.dropLocked(fmt.Errorf("owner %d: connection dropped after an ack went unanswered", p.owner))
	p.mu.Unlock()
	c.done(fmt.Errorf("ack to owner %d unanswered after %v", p.owner, p.timeout))
}

// readLoop matches the peer's responses to outstanding forwards until the
// connection dies, then fails whatever is left.
func (p *peerConn) readLoop(conn net.Conn) {
	dec := clientproto.NewDecoder(bufio.NewReader(conn))
	var resp clientproto.Response
	for {
		if err := dec.Response(&resp); err != nil {
			p.mu.Lock()
			if p.conn == conn {
				p.dropLocked(fmt.Errorf("peer connection lost: %v", err))
			}
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		c, ok := p.calls[resp.ReqID]
		delete(p.calls, resp.ReqID)
		p.mu.Unlock()
		if ok {
			c.done(resp.Err())
		}
	}
}

// dropLocked (p.mu held) closes the connection and fails every
// outstanding forward, written or still queued; the next Forward redials.
func (p *peerConn) dropLocked(err error) {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
		p.bw = nil
	}
	p.queue = p.queue[:0]
	for reqID, c := range p.calls {
		delete(p.calls, reqID)
		go c.done(err)
	}
	p.watchdog.Stop()
	p.armed = false
}

// Close fails all outstanding forwards and closes the peer connections.
func (f *AckForwarder) Close() {
	f.mu.Lock()
	f.closed = true
	peers := make([]*peerConn, 0, len(f.peers))
	for _, p := range f.peers {
		peers = append(peers, p)
	}
	f.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		p.closed = true
		p.dropLocked(fmt.Errorf("ack forwarder closed"))
		p.mu.Unlock()
		p.cond.Broadcast()
	}
}
