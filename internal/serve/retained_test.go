package serve

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/netrun"
	"dpq/internal/prio"
	"dpq/internal/skeap"
)

// TestServeRetainedBytes: a daemon's memory does not grow with the
// operations it has served. N operations, then 10·N more, go through a
// Server on the single-process Skeap backend, built as dpqd builds it
// (its trace keeps counts, not operations), with at most one element per
// client in the heap at any time. After each pass the heap is drained and
// the garbage collected; what is still in use after 11·N operations must
// be within 1.2× of what was in use after N: nothing is kept per op.
func TestServeRetainedBytes(t *testing.T) {
	const hosts, prios, workers, n = 4, 3, 8, 2000
	srv, addr := startSkeapDaemon(t, hosts, prios)
	conns := make([]*retainClient, workers)
	for i := range conns {
		var err error
		if conns[i], err = dialRetain(addr); err != nil {
			t.Fatal(err)
		}
		defer conns[i].conn.Close()
	}

	// pass sends ops requests over the workers: each worker inserts an
	// element, then deletes one and acks it, so the heap never holds more
	// than one element per worker and ends empty.
	pass := func(ops int) uint64 {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < ops/2; i += workers {
					if err := c.pair(uint64(i)); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		waitQuiesce(t, srv)
		if st := srv.Stats(); st.ElemRecs != 0 || st.LeaseRecs != 0 || st.Pending != 0 {
			t.Fatalf("not drained: %+v", st)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	first := pass(n)
	after := pass(10 * n)
	t.Logf("heap in use after %d ops: %d B; after %d ops: %d B (%.2fx)", n, first, 11*n, after, float64(after)/float64(first))
	if float64(after) > 1.2*float64(first) {
		t.Errorf("heap in use grew from %d B after %d ops to %d B after %d: the daemon retains per-op state", first, n, after, 11*n)
	}
}

// startSkeapDaemon serves a single-process Skeap heap of the given hosts
// and priority classes over loopback, built as dpqd builds it: a netrun
// engine, a trace that keeps counts, not operations, and no WAL. It
// returns the server and its client address; cleanup stops both.
func startSkeapDaemon(t *testing.T, hosts, prios int) (*Server, string) {
	t.Helper()
	h := skeap.New(skeap.Config{N: hosts, P: prios, Seed: 11})
	heap := NewSkeapHeap(h, prios)
	heap.Trace().Forget()
	groups, group := h.Overlay().Group()
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := netrun.New(netrun.Config{
		Proc: 0, Addrs: []string{peerLn.Addr().String()}, Listener: peerLn,
		Handlers: h.Handlers(), Seed: 12, Groups: groups, Group: group,
		Tick: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids atomic.Uint64
	local := make([]int, hosts)
	for i := range local {
		local[i] = i
	}
	srv, err := New(Config{
		Heap: heap, Hosts: local,
		NextID:   func() prio.ElemID { return prio.ElemID(ids.Add(1)) },
		LeaseTTL: time.Hour,
	})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	eng.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		srv.Shutdown()
		eng.Close()
	})
	return srv, ln.Addr().String()
}

// retainClient is a minimal clientproto session whose errors are returned,
// so that several can run on their own goroutines.
type retainClient struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	reqID uint64
}

func dialRetain(addr string) (*retainClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &retainClient{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

func (c *retainClient) do(req *clientproto.Request) (*clientproto.Response, error) {
	c.reqID++
	req.ReqID = c.reqID
	if err := clientproto.WriteRequest(c.bw, req); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return clientproto.ReadResponse(c.br)
}

// pair inserts an element, then deletes one and acks it. A worker's
// delete follows its own insert, so the heap is never empty when one runs.
func (c *retainClient) pair(p uint64) error {
	resp, err := c.do(&clientproto.Request{Op: clientproto.OpInsert, Prio: p, Payload: "w"})
	if err != nil {
		return err
	}
	if resp.Status != clientproto.StatusInserted {
		return fmt.Errorf("insert: status %d (code %s)", resp.Status, resp.Code)
	}
	if resp, err = c.do(&clientproto.Request{Op: clientproto.OpDelete}); err != nil {
		return err
	}
	if resp.Status != clientproto.StatusElem {
		return fmt.Errorf("delete: status %d (code %s)", resp.Status, resp.Code)
	}
	if resp, err = c.do(&clientproto.Request{Op: clientproto.OpAck, ID: resp.ID}); err == nil && resp.Status != clientproto.StatusAcked {
		err = fmt.Errorf("ack: status %d (code %s)", resp.Status, resp.Code)
	}
	return err
}
