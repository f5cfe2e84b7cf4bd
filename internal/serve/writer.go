// connWriter: the asynchronous per-connection response writer. Heap
// completions and rejections enqueue responses without ever blocking a
// protocol goroutine on a slow client socket; a dedicated writeLoop drains
// the queue. The queue is bounded — a client that stops reading while
// responses pile up past the cap is evicted instead of growing the queue
// without bound (the OOM vector admission control exists to close).
package serve

import (
	"bufio"
	"net"
	"sync"

	"dpq/internal/clientproto"
)

// connWriter owns the write half of one client connection.
type connWriter struct {
	conn     net.Conn
	bw       *bufio.Writer
	maxQueue int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []clientproto.Response
	closed bool
	full   bool // queue overflowed; the connection is being evicted

	// spare is the batch writeLoop last wrote, the queue's next backing
	// array: the two swap, so a steady connection queues without
	// allocating. writeLoop alone touches it.
	spare []clientproto.Response
}

// keepQueue is the largest batch capacity writeLoop keeps as the spare; a
// backlog beyond it is not pinned for the rest of the connection.
const keepQueue = 1 << 10

func newConnWriter(conn net.Conn, maxQueue int) *connWriter {
	c := &connWriter{conn: conn, bw: bufio.NewWriter(conn), maxQueue: maxQueue}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// send enqueues one response. It returns false when the connection is
// closed or the queue is at capacity — on overflow the writer marks itself
// full and the caller evicts the connection.
func (c *connWriter) send(resp clientproto.Response) bool {
	c.mu.Lock()
	if c.closed || c.full {
		c.mu.Unlock()
		return false
	}
	if c.maxQueue > 0 && len(c.queue) >= c.maxQueue {
		c.full = true
		c.mu.Unlock()
		// Closing the socket here (not just signalling) matters: writeLoop
		// may be blocked inside a Write the peer never drains, and only a
		// close unblocks it so the eviction can finish.
		c.conn.Close()
		c.cond.Signal()
		return false
	}
	c.queue = append(c.queue, resp)
	c.mu.Unlock()
	c.cond.Signal()
	return true
}

// close tears the connection down immediately; queued responses are
// dropped. Safe to call repeatedly and concurrently with writeLoop.
func (c *connWriter) close() {
	c.mu.Lock()
	c.closed = true
	c.queue = nil
	c.mu.Unlock()
	c.cond.Broadcast()
	c.conn.Close()
}

// closeGraceful stops accepting new responses but lets writeLoop flush the
// queued ones (including a final StatusError explaining a shutdown) before
// the socket closes — close() would race the write and could drop the very
// response explaining why.
func (c *connWriter) closeGraceful() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// queueLen reports the current backlog (stats and tests).
func (c *connWriter) queueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// wasEvicted reports whether the writer dropped the connection at the
// queue cap.
func (c *connWriter) wasEvicted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.full
}

// writeLoop drains the response queue onto the socket and closes it once
// the writer is marked closed (queue flushed first) or evicted for
// overflow (backlog dropped).
func (c *connWriter) writeLoop() {
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed && !c.full {
			c.cond.Wait()
		}
		if c.full {
			c.queue = nil
			c.closed = true
			c.mu.Unlock()
			c.conn.Close()
			return
		}
		batch := c.queue
		c.queue, c.spare = c.spare[:0], nil
		closed := c.closed
		c.mu.Unlock()
		for i := range batch {
			if err := clientproto.WriteResponse(c.bw, &batch[i]); err != nil {
				c.close()
				return
			}
		}
		if cap(batch) <= keepQueue {
			c.spare = batch
		}
		if len(batch) > 0 {
			if err := c.bw.Flush(); err != nil {
				c.close()
				return
			}
		}
		if closed {
			c.conn.Close()
			return
		}
	}
}
