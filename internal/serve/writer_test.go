package serve

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dpq/internal/clientproto"
)

// readAllResponses drains responses from the read side until EOF/error.
func readAllResponses(r io.Reader) []*clientproto.Response {
	br := bufio.NewReader(r)
	var out []*clientproto.Response
	for {
		resp, err := clientproto.ReadResponse(br)
		if err != nil {
			return out
		}
		out = append(out, resp)
	}
}

// TestWriterSlowSocketQueues: with the peer not reading, sends queue
// instead of blocking the caller; once the peer drains, every response
// arrives in order.
func TestWriterSlowSocketQueues(t *testing.T) {
	client, server := net.Pipe()
	cw := newConnWriter(server, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); cw.writeLoop() }()

	const n = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			if !cw.send(clientproto.Response{ReqID: uint64(i), Status: clientproto.StatusBottom}) {
				t.Errorf("send %d refused", i)
				return
			}
		}
	}()
	select {
	case <-done:
		// All n sends returned while the peer read nothing: the queue (not
		// the caller) absorbed the slow socket.
	case <-time.After(5 * time.Second):
		t.Fatal("send blocked on a slow socket")
	}
	var resps []*clientproto.Response
	got := make(chan struct{})
	go func() { resps = readAllResponses(client); close(got) }()
	cw.closeGraceful()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("reader never finished")
	}
	wg.Wait()
	if len(resps) != n {
		t.Fatalf("received %d responses, want %d", len(resps), n)
	}
	for i, resp := range resps {
		if resp.ReqID != uint64(i+1) {
			t.Fatalf("response %d has reqID %d: reordered", i, resp.ReqID)
		}
	}
}

// TestWriterGracefulFlushesFinalError: the queued ErrShuttingDown must
// reach the peer even when closeGraceful lands immediately after the send
// — the exact race close() would lose.
func TestWriterGracefulFlushesFinalError(t *testing.T) {
	for i := 0; i < 20; i++ {
		client, server := net.Pipe()
		cw := newConnWriter(server, 0)
		go cw.writeLoop()
		got := make(chan []*clientproto.Response, 1)
		go func() { got <- readAllResponses(client) }()
		if !cw.send(clientproto.Response{ReqID: 9, Status: clientproto.StatusError, Code: clientproto.ErrShuttingDown}) {
			t.Fatal("send refused")
		}
		cw.closeGraceful()
		select {
		case resps := <-got:
			if len(resps) != 1 || resps[0].Code != clientproto.ErrShuttingDown {
				t.Fatalf("iteration %d: peer saw %v, want the shutdown error", i, resps)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("reader never finished")
		}
		client.Close()
	}
}

// TestWriterSendAfterClose: both close flavours refuse new sends, and
// repeated closes are safe.
func TestWriterSendAfterClose(t *testing.T) {
	_, server := net.Pipe()
	cw := newConnWriter(server, 0)
	go cw.writeLoop()
	cw.close()
	if cw.send(clientproto.Response{ReqID: 1, Status: clientproto.StatusBottom}) {
		t.Fatal("send accepted after close")
	}
	cw.close()
	cw.closeGraceful()

	_, server2 := net.Pipe()
	cw2 := newConnWriter(server2, 0)
	go cw2.writeLoop()
	cw2.closeGraceful()
	if cw2.send(clientproto.Response{ReqID: 1, Status: clientproto.StatusBottom}) {
		t.Fatal("send accepted after closeGraceful")
	}
}

// TestWriterEvictionAtCap: the send past the cap is refused, the
// connection dies even though the peer never reads (the writer is blocked
// mid-Write), and wasEvicted reports it.
func TestWriterEvictionAtCap(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	cw := newConnWriter(server, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); cw.writeLoop() }()
	// First send unblocks into the pipe Write and parks there; the next 3
	// fill the queue; the 5th must evict.
	refused := false
	for i := 1; i <= 5; i++ {
		ok := cw.send(clientproto.Response{ReqID: uint64(i), Status: clientproto.StatusBottom})
		if !ok {
			refused = true
			break
		}
		if i == 1 {
			// Give writeLoop a moment to pick the first batch up and block
			// in the pipe write, so the queue length is deterministic.
			waitFor(t, func() bool { return cw.queueLen() == 0 })
		}
	}
	if !refused {
		t.Fatal("no send refused at the cap")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writeLoop never exited after eviction")
	}
	if !cw.wasEvicted() {
		t.Fatal("eviction not reported")
	}
}

// TestWriterConcurrentSendClose hammers send against close (run under
// -race); no send may succeed after close returns.
func TestWriterConcurrentSendClose(t *testing.T) {
	for i := 0; i < 50; i++ {
		client, server := net.Pipe()
		cw := newConnWriter(server, 0)
		go cw.writeLoop()
		go io.Copy(io.Discard, client)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					cw.send(clientproto.Response{ReqID: uint64(g*100 + k), Status: clientproto.StatusBottom})
				}
			}(g)
		}
		cw.close()
		if cw.send(clientproto.Response{ReqID: 999, Status: clientproto.StatusBottom}) {
			t.Fatal("send accepted after close returned")
		}
		wg.Wait()
		client.Close()
	}
}

// waitFor polls cond until true or the test deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
