package main

import (
	"bufio"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"dpq/internal/clientproto"
)

// stubServer answers every request in arrival order — deletes with a
// first-delivery element, acks with StatusAcked — and records the largest
// number of requests it ever held unanswered.
type stubServer struct {
	outstanding    atomic.Int64
	maxOutstanding atomic.Int64
}

func (s *stubServer) serve(c net.Conn) {
	reqs := make(chan *clientproto.Request, 1<<16) // never the bottleneck: the test sends fewer
	go func() {
		defer close(reqs)
		br := bufio.NewReader(c)
		for {
			req, err := clientproto.ReadRequest(br)
			if err != nil {
				return
			}
			if n := s.outstanding.Add(1); n > s.maxOutstanding.Load() {
				s.maxOutstanding.Store(n)
			}
			reqs <- req
		}
	}()
	var nextID uint64
	for req := range reqs {
		resp := &clientproto.Response{ReqID: req.ReqID}
		switch req.Op {
		case clientproto.OpDelete:
			nextID++
			resp.Status, resp.ID, resp.Value, resp.Deliveries = clientproto.StatusElem, nextID, int64(nextID), 1
		case clientproto.OpAck:
			resp.Status, resp.ID = clientproto.StatusAcked, req.ID
		}
		s.outstanding.Add(-1)
		if clientproto.WriteResponse(c, resp) != nil {
			return
		}
	}
}

// TestDeletePhaseHonoursWindow: in ack mode every delete response chains
// an ack into the in-flight set, so freeing one slot per send is not
// enough — runPhase once let the set grow by one per delivered element
// until the daemon's MaxInFlight refused the run.
func TestDeletePhaseHonoursWindow(t *testing.T) {
	const window, quota = 16, 2000
	client, server := net.Pipe()
	defer client.Close()
	stub := &stubServer{}
	done := make(chan struct{})
	go func() {
		stub.serve(server)
		close(done)
	}()
	var consumed atomic.Int64
	c := &conn{
		c: client, dec: clientproto.NewDecoder(bufio.NewReader(client)), bw: bufio.NewWriter(client),
		sent: map[uint64]pendingReq{}, mode: "ack", consumed: &consumed,
		rng: rand.New(rand.NewSource(1)),
	}
	if err := c.runPhase(false, quota, window, 4); err != nil {
		t.Fatal(err)
	}
	client.Close()
	<-done
	if c.acked != quota || len(c.deleteIDs) != quota {
		t.Fatalf("%d deliveries, %d acks, want %d each", len(c.deleteIDs), c.acked, quota)
	}
	if got := stub.maxOutstanding.Load(); got > window {
		t.Fatalf("server held %d requests unanswered on a -window %d connection", got, window)
	}
}
