package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpq/internal/clientproto"
)

// opKind is a request type as the generator accounts it.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opAck
	numOps
)

func (o opKind) String() string { return [...]string{"insert", "delete", "ack"}[o] }

// pend is one request in flight.
type pend struct {
	op opKind
	// ref is the instant latency is measured from: the send time in a
	// closed loop, the due time in an open loop.
	ref time.Time
}

// latRec is one answered request.
type latRec struct {
	op   opKind
	recv time.Duration // since the generator's epoch
	lat  time.Duration
}

// delivery is one StatusElem response.
type delivery struct {
	id         uint64
	deliveries uint32
}

// seqVal pairs a heap operation's serialization value with its
// per-connection issue sequence.
type seqVal struct {
	seq uint64
	v   int64
}

// spanSink receives the client-side span boundaries of the traced pass.
type spanSink interface {
	clientSend(reqID uint64, op opKind, at time.Time)
	clientRecv(reqID uint64, at time.Time)
}

// generator is the single load-generating process: a few pipelined
// connections that share one view of how many elements the queue holds.
type generator struct {
	epoch time.Time
	prios uint64
	conns []*gconn
	sink  spanSink // nil outside the traced pass

	// avail counts elements known to be in the queue (their insert was
	// answered) that no issued delete has claimed yet. A delete is only
	// issued against a claim, so ⊥ is never a legal answer.
	avail atomic.Int64
	// stop ends the mix: no new inserts or deletes are issued.
	stop atomic.Bool
}

// gconn is one pipelined connection. All fields are owned by the
// connection's goroutine, except under mu in the open loop.
type gconn struct {
	g   *generator
	idx int
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	rng *rand.Rand

	mu   sync.Mutex // open loop only: the scheduler and the reader share bw and sent
	seq  uint64
	sent map[uint64]pend
	ackQ []uint64 // delivered elements waiting for their ack to be sent

	recs      []latRec
	late      []time.Duration // open loop: actual send − due
	inserted  []uint64
	consumed  []delivery
	acked     []uint64
	values    []seqVal
	bottoms   int
	attempted int
	failed    int
}

// newGenerator dials one connection per address.
func newGenerator(addrs []string, prios uint64, seed uint64) (*generator, error) {
	g := &generator{epoch: time.Now(), prios: prios}
	for i, addr := range addrs {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		g.conns = append(g.conns, &gconn{
			g: g, idx: i, c: nc,
			br:   bufio.NewReaderSize(nc, 64<<10),
			bw:   bufio.NewWriterSize(nc, 64<<10),
			rng:  rand.New(rand.NewSource(int64(seed*1000003 + uint64(i)))),
			sent: map[uint64]pend{},
		})
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.c.Close()
	}
}

// claim reserves one queued element for a delete; false when none is left.
func (g *generator) claim() bool {
	for {
		n := g.avail.Load()
		if n <= 0 {
			return false
		}
		if g.avail.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// each runs f on every connection concurrently and returns the first error.
func (g *generator) each(f func(c *gconn) error) error {
	errs := make([]error, len(g.conns))
	var wg sync.WaitGroup
	for i, c := range g.conns {
		wg.Add(1)
		go func(i int, c *gconn) {
			defer wg.Done()
			errs[i] = f(c)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("conn %d: %w", i, err)
		}
	}
	return nil
}

// send buffers one request; ref is the latency reference instant.
func (c *gconn) send(op opKind, id uint64, ref time.Time) error {
	c.seq++
	reqID := uint64(c.idx+1)<<32 | c.seq
	req := clientproto.Request{ReqID: reqID}
	switch op {
	case opInsert:
		req.Op = clientproto.OpInsert
		req.Prio = uint64(c.rng.Int63n(int64(c.g.prios)))
		// The payload carries the request id so that the traced pass can
		// tie the heap call to the request; untraced runs send the same
		// bytes.
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], reqID)
		req.Payload = string(b[:])
	case opDelete:
		req.Op = clientproto.OpDelete
	case opAck:
		req.Op = clientproto.OpAck
		req.ID = id
	}
	c.sent[reqID] = pend{op: op, ref: ref}
	c.attempted++
	if c.g.sink != nil {
		c.g.sink.clientSend(reqID, op, time.Now())
	}
	return clientproto.WriteRequest(c.bw, &req)
}

// recv reads one response and records its outcome. A delivered element is
// queued for its ack.
func (c *gconn) recv() error {
	resp, err := clientproto.ReadResponse(c.br)
	if err != nil {
		return err
	}
	now := time.Now()
	p, ok := c.sent[resp.ReqID]
	if !ok {
		return fmt.Errorf("response for unknown request %d", resp.ReqID)
	}
	delete(c.sent, resp.ReqID)
	if c.g.sink != nil {
		c.g.sink.clientRecv(resp.ReqID, now)
	}
	if resp.Err() != nil {
		// Error, overloaded and unavailable answers all count as failed
		// operations; the workloads are sized so that none occurs.
		c.failed++
		return nil
	}
	c.recs = append(c.recs, latRec{op: p.op, recv: now.Sub(c.g.epoch), lat: now.Sub(p.ref)})
	if p.op != opAck && resp.Value >= 0 {
		c.values = append(c.values, seqVal{seq: resp.ReqID & (1<<32 - 1), v: resp.Value})
	}
	switch resp.Status {
	case clientproto.StatusInserted:
		c.inserted = append(c.inserted, resp.ID)
		c.g.avail.Add(1)
	case clientproto.StatusElem:
		c.consumed = append(c.consumed, delivery{id: resp.ID, deliveries: resp.Deliveries})
		c.ackQ = append(c.ackQ, resp.ID)
	case clientproto.StatusBottom:
		c.bottoms++
	case clientproto.StatusAcked:
		c.acked = append(c.acked, resp.ID)
	}
	return nil
}

// recvSome blocks for one response and then takes whatever else is
// already buffered, so that one wake-up serves a whole batch.
func (c *gconn) recvSome() error {
	if err := c.recv(); err != nil {
		return err
	}
	for c.br.Buffered() > 0 {
		if err := c.recv(); err != nil {
			return err
		}
	}
	return nil
}

// pump is the closed loop: keep window requests in flight, choosing each
// new one with next, which returns false when it has nothing to issue.
// Queued acks go first. It returns when next is exhausted and nothing is in
// flight.
func (c *gconn) pump(window int, next func() (opKind, bool)) error {
	for {
		done := false
		for len(c.sent) < window {
			now := time.Now()
			if len(c.ackQ) > 0 {
				id := c.ackQ[0]
				c.ackQ = c.ackQ[1:]
				if err := c.send(opAck, id, now); err != nil {
					return err
				}
				continue
			}
			op, ok := next()
			if !ok {
				done = true
				break
			}
			if err := c.send(op, 0, now); err != nil {
				return err
			}
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		if len(c.sent) == 0 {
			if done && len(c.ackQ) == 0 {
				return nil
			}
			continue
		}
		if err := c.recvSome(); err != nil {
			return err
		}
	}
}

// insertN inserts n elements.
func (c *gconn) insertN(n, window int) error {
	return c.pump(window, func() (opKind, bool) {
		if n == 0 {
			return 0, false
		}
		n--
		return opInsert, true
	})
}

// mix issues a seeded 50/50 insert/delete stream until the generator's
// stop flag is set. A delete that finds nothing to claim becomes an insert.
func (c *gconn) mix(window int) error {
	return c.pump(window, func() (opKind, bool) {
		if c.g.stop.Load() {
			return 0, false
		}
		if c.rng.Intn(2) == 0 && c.g.claim() {
			return opDelete, true
		}
		return opInsert, true
	})
}

// consume deletes and acks until limit elements were claimed here or the
// queue has nothing left to claim; limit < 0 means no limit.
func (c *gconn) consume(window, limit int) error {
	return c.pump(window, func() (opKind, bool) {
		if limit == 0 || !c.g.claim() {
			return 0, false
		}
		limit--
		return opDelete, true
	})
}

// probeEmpty issues one delete against the drained queue; it must answer ⊥.
func (c *gconn) probeEmpty() (bool, error) {
	before := c.bottoms
	sent := false
	err := c.pump(1, func() (opKind, bool) {
		if sent {
			return 0, false
		}
		sent = true
		return opDelete, true
	})
	ok := c.bottoms == before+1
	if ok {
		c.bottoms-- // the one legal ⊥
	}
	return ok, err
}

// openEvent is one scheduled request of the open loop.
type openEvent struct {
	due time.Duration // since the schedule's start
	op  opKind        // opInsert or opDelete
}

// openSchedule draws Poisson insert arrivals at rate per second over dur
// and schedules the matching delete lag later, so that the offered load is
// rate elements per second in and out regardless of how the system keeps
// up. The same seed gives the same schedule.
func openSchedule(seed uint64, rate float64, dur, lag time.Duration) []openEvent {
	rng := rand.New(rand.NewSource(int64(seed)))
	var evs []openEvent
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			break
		}
		evs = append(evs, openEvent{due: due, op: opInsert})
		if due+lag < dur {
			evs = append(evs, openEvent{due: due + lag, op: opDelete})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// open plays a schedule: a scheduler goroutine sends each request when it
// is due, and this goroutine reads responses and acks deliveries at once.
// A response is timed from when its request was due, not from when it left,
// so a stall charges every request it delayed.
func (c *gconn) open(start time.Time, evs []openEvent) error {
	errc := make(chan error, 1)
	schedDone := false
	go func() {
		// The Go runtime rounds an idle process's timer waits up to whole
		// milliseconds, which is the daemons' tick; the scheduler sleeps in
		// the kernel on a thread of its own to stay on time.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		errc <- func() error {
			i := 0
			for i < len(evs) {
				if d := time.Until(start.Add(evs[i].due)); d > 0 {
					ts := syscall.NsecToTimespec(int64(d))
					syscall.Nanosleep(&ts, nil)
				}
				now := time.Now()
				c.mu.Lock()
				for i < len(evs) && !start.Add(evs[i].due).After(now) {
					due := start.Add(evs[i].due)
					c.late = append(c.late, now.Sub(due))
					if evs[i].op == opDelete {
						// Scheduled deletes do not wait for a claim (the
						// prefill keeps the queue non-empty); the count stays
						// right for the drain that follows.
						c.g.avail.Add(-1)
					}
					if err := c.send(evs[i].op, 0, due); err != nil {
						c.mu.Unlock()
						return err
					}
					i++
				}
				if i == len(evs) {
					schedDone = true
				}
				err := c.bw.Flush()
				c.mu.Unlock()
				if err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	readErr := func() error {
		for {
			// Only the first byte is awaited outside the lock; the rest of
			// the frame is already on its way.
			if _, err := c.br.Peek(1); err != nil {
				return err
			}
			c.mu.Lock()
			err := c.recv()
			for err == nil && len(c.ackQ) > 0 {
				id := c.ackQ[0]
				c.ackQ = c.ackQ[1:]
				err = c.send(opAck, id, time.Now())
			}
			if err == nil {
				err = c.bw.Flush()
			}
			finished := schedDone && len(c.sent) == 0
			c.mu.Unlock()
			if err != nil || finished {
				return err
			}
		}
	}()
	if readErr != nil {
		c.c.Close() // unblocks a scheduler stuck in a write
	}
	if err := <-errc; err != nil && readErr == nil {
		return err
	}
	return readErr
}
