package serve

import (
	"bufio"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/prio"
)

// TestRemoteAckReplication: an element owned by daemon B (its WAL holds
// the insert) is delivered and acked through daemon A; the ack must reach
// B's log before A's client hears success, so a recovery of B finds
// nothing pending.
func TestRemoteAckReplication(t *testing.T) {
	dirB := t.TempDir()
	sB, _, addrB := newTestServer(t, func(c *Config) {
		c.WALDir = dirB
		c.Proc = 1
	})
	fwd := NewAckForwarder([]string{"", addrB})
	defer fwd.Close()
	sA, _, addrA := newTestServer(t, func(c *Config) {
		c.Proc = 0
		c.Owner = func(prio.ElemID) int { return 1 } // everything owned by B
		c.PeerAck = fwd.Forward
	})

	// The same element id exists at both daemons: B holds the durable
	// pending record, A's heap holds the deliverable copy (in production
	// the distributed heap is shared; here two testHeaps stand in).
	cB := dial(t, addrB)
	wantStatus(t, cB.insert(7), clientproto.StatusInserted)
	cA := dial(t, addrA)
	wantStatus(t, cA.insert(7), clientproto.StatusInserted)

	d := cA.deleteMin()
	wantStatus(t, d, clientproto.StatusElem)
	wantStatus(t, cA.ack(d.ID), clientproto.StatusAcked)

	if st := sA.Stats(); st.Acked != 1 || st.Leased != 0 {
		t.Fatalf("serving daemon stats %+v", st)
	}
	if st := sB.Stats(); st.RemoteAcks != 1 || st.Pending != 0 {
		t.Fatalf("owner daemon stats %+v", st)
	}

	// The owner's WAL must hold the ack durably: recovery is empty.
	if _, err := sB.Shutdown(); err != nil {
		t.Fatal(err)
	}
	w, recovered, err := Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recovered) != 0 {
		t.Fatalf("owner recovers %d elements after a replicated ack, want 0", len(recovered))
	}
}

// TestRemoteAckReclaimsRedelivery: a nacked element whose next delivery
// (and ack) happens on another daemon reaches the owner only as a
// replicated ack — the delivery history recorded at the nack must be
// reclaimed with it, or a long-running daemon's lease table grows without
// bound.
func TestRemoteAckReclaimsRedelivery(t *testing.T) {
	s, _, addr := newTestServer(t, nil)
	c := dial(t, addr)
	wantStatus(t, c.insert(1), clientproto.StatusInserted)
	d := c.deleteMin()
	wantStatus(t, d, clientproto.StatusElem)
	wantStatus(t, c.nack(d.ID), clientproto.StatusNacked)
	// The peer-replication channel is an ack for a pending, unleased id —
	// the redelivery after the nack was served by the other daemon.
	wantStatus(t, c.ack(d.ID), clientproto.StatusAcked)
	st := s.Stats()
	if st.LeaseRecs != 0 {
		t.Fatalf("%d lease records leaked after a replicated ack", st.LeaseRecs)
	}
	if st.RemoteAcks != 1 {
		t.Fatalf("RemoteAcks = %d, want 1", st.RemoteAcks)
	}
}

// TestRedelivAgeOut: the delivery history of an element that is not
// locally pending (a foreign element nacked here whose settling happened
// entirely on other daemons) is aged out by the expiry scan; histories of
// locally pending elements are kept regardless of age.
func TestRedelivAgeOut(t *testing.T) {
	s, th, addr := newTestServer(t, func(c *Config) { c.LeaseTTL = time.Minute })
	c := dial(t, addr)
	wantStatus(t, c.insert(1), clientproto.StatusInserted) // local: pending here
	// A foreign element reaches this daemon's heap without being pending
	// here, as the shared heap hands out another daemon's element.
	foreignID := uint64(1 << 50)
	th.Reinsert(0, prio.Element{ID: prio.ElemID(foreignID), Prio: 2})
	waitQuiesce(t, s)
	local, foreign := c.deleteMin(), c.deleteMin()
	wantStatus(t, local, clientproto.StatusElem)
	wantStatus(t, foreign, clientproto.StatusElem)
	if foreign.ID != foreignID {
		t.Fatalf("second delivery is element %d, want the foreign %d", foreign.ID, foreignID)
	}
	wantStatus(t, c.nack(local.ID), clientproto.StatusNacked)
	wantStatus(t, c.nack(foreign.ID), clientproto.StatusNacked)
	waitQuiesce(t, s)

	s.expireLeases(time.Now().Add(7 * time.Minute)) // under 8×TTL: both stay
	if st := s.Stats(); st.LeaseRecs != 2 || st.Leased != 0 {
		t.Fatalf("after a young scan: %d lease records (%d leased), want 2 histories", st.LeaseRecs, st.Leased)
	}

	s.expireLeases(time.Now().Add(9 * time.Minute)) // past 8×TTL
	if st := s.Stats(); st.LeaseRecs != 1 {
		t.Fatalf("after an old scan: %d lease records, want the local history alone", st.LeaseRecs)
	}
	// The kept history is the local element's: its next delivery is its
	// second, while the foreign element's count restarts.
	if d := c.deleteMin(); d.ID != local.ID || d.Deliveries != 2 {
		t.Fatalf("local redelivery: id %d deliveries %d, want id %d deliveries 2", d.ID, d.Deliveries, local.ID)
	}
	if d := c.deleteMin(); d.ID != foreignID || d.Deliveries != 1 {
		t.Fatalf("foreign redelivery: id %d deliveries %d, want id %d deliveries 1", d.ID, d.Deliveries, foreignID)
	}
}

// TestForwardTimeoutFailsStalledPeer: an owner that accepts the
// connection but never answers must not wedge the forward forever — the
// lease would stay settling and the element would neither settle nor
// redeliver. The deadline fails the call and drops the connection; the
// next forward redials and succeeds against a recovered owner.
func TestForwardTimeoutFailsStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// First connection stalls (read and discard, never respond); later
	// connections answer every ack — a peer that came back.
	var connSeq atomic.Uint64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			stall := connSeq.Add(1) == 1
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				for {
					req, err := clientproto.ReadRequest(br)
					if err != nil {
						return
					}
					if stall {
						continue
					}
					resp := &clientproto.Response{ReqID: req.ReqID, Status: clientproto.StatusAcked, ID: req.ID}
					if err := clientproto.WriteResponse(bw, resp); err != nil {
						return
					}
					if err := bw.Flush(); err != nil {
						return
					}
				}
			}()
		}
	}()

	f := NewAckForwarder([]string{ln.Addr().String()})
	f.Timeout = 100 * time.Millisecond
	defer f.Close()

	result := make(chan error, 1)
	f.Forward(0, 1, func(err error) { result <- err })
	select {
	case err := <-result:
		if err == nil {
			t.Fatal("forward to a stalled peer reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forward never timed out against a stalled peer")
	}

	// The stalled connection was dropped; the retry redials and succeeds.
	f.Forward(0, 1, func(err error) { result <- err })
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("forward after redial failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forward after redial never completed")
	}
	if n := connSeq.Load(); n != 2 {
		t.Fatalf("peer saw %d connections, want 2 (stalled one dropped, one redial)", n)
	}
}

// TestPeerAckFailureKeepsLease: when the owner daemon is unreachable the
// client's ack fails and the lease survives, expiring into a redelivery —
// the element is never lost, never falsely acknowledged.
func TestPeerAckFailureKeepsLease(t *testing.T) {
	s, _, addr := newTestServer(t, func(c *Config) {
		c.Proc = 0
		c.Owner = func(prio.ElemID) int { return 1 }
		c.PeerAck = func(owner int, id prio.ElemID, done func(error)) {
			done(errors.New("owner down"))
		}
		c.LeaseTTL = 100 * time.Millisecond
	})
	c := dial(t, addr)
	wantStatus(t, c.insert(1), clientproto.StatusInserted)
	first := c.deleteMin()
	wantStatus(t, first, clientproto.StatusElem)
	wantErr(t, c.ack(first.ID), clientproto.ErrPeerUnavailable)
	if st := s.Stats(); st.Leased != 1 {
		t.Fatalf("lease dropped after a failed peer ack: %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("element never redelivered after the failed ack")
		}
		resp := c.deleteMin()
		if resp.Status == clientproto.StatusElem {
			if resp.ID != first.ID || resp.Deliveries != 2 {
				t.Fatalf("redelivery id %d deliveries %d, want id %d deliveries 2", resp.ID, resp.Deliveries, first.ID)
			}
			return
		}
		wantStatus(t, resp, clientproto.StatusBottom)
		time.Sleep(10 * time.Millisecond)
	}
}

// countingConn counts Write calls on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestForwardBatchesWrites: forwards issued together share socket writes.
// The owner here answers slowly (one flush per response), so requests pile
// up behind the writer's first flush and the following ones carry many
// each; every forward still completes exactly once.
func TestForwardBatchesWrites(t *testing.T) {
	const n = 2000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		for {
			req, err := clientproto.ReadRequest(br)
			if err != nil {
				return
			}
			resp := &clientproto.Response{ReqID: req.ReqID, Status: clientproto.StatusAcked, ID: req.ID}
			if clientproto.WriteResponse(bw, resp) != nil || bw.Flush() != nil {
				return
			}
		}
	}()

	f := NewAckForwarder([]string{ln.Addr().String()})
	defer f.Close()
	var cc *countingConn
	dial := f.dial
	f.dial = func(addr string) (net.Conn, error) {
		conn, err := dial(addr)
		if err == nil {
			cc = &countingConn{Conn: conn}
			conn = cc
		}
		return conn, err
	}
	var completed [n]atomic.Int32
	results := make(chan error, n)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := g; i < n; i += 8 {
				f.Forward(0, prio.ElemID(i+1), func(err error) {
					completed[i].Add(1)
					results <- err
				})
			}
		}(g)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("forward failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d forwards completed", i, n)
		}
	}
	for i := range completed {
		if c := completed[i].Load(); c != 1 {
			t.Fatalf("forward %d completed %d times", i, c)
		}
	}
	if w := cc.writes.Load(); w > n/4 {
		t.Fatalf("%d forwards took %d socket writes, want far fewer", n, w)
	}
}
