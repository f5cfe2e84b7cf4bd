package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/prio"
)

// signalTestHeap is a testHeap whose reset the test applies by hand: fire
// raises the floor, then closes the channel of ResetSignal, in the order
// the Skeap heap keeps.
type signalTestHeap struct {
	*testHeap
	floor atomic.Uint64
	mu    sync.Mutex
	ch    chan struct{}
}

func newSignalTestHeap(th *testHeap) *signalTestHeap {
	return &signalTestHeap{testHeap: th, ch: make(chan struct{})}
}

func (h *signalTestHeap) InjectReset()           {}
func (h *signalTestHeap) LastResetFloor() uint64 { return h.floor.Load() }

func (h *signalTestHeap) ResetSignal() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ch
}

func (h *signalTestHeap) fire(floor uint64) {
	h.floor.Store(floor)
	h.mu.Lock()
	close(h.ch)
	h.ch = make(chan struct{})
	h.mu.Unlock()
}

// restartWith opens a deferred-recovery server over walDir on the heap
// built by heap, with ids above the first incarnation's.
func restartWith(t *testing.T, walDir string, heap func(*testHeap) Heap) (*Server, string) {
	t.Helper()
	th := newTestHeap()
	t.Cleanup(th.Stop)
	var ids atomic.Uint64
	ids.Store(1000)
	s, _, addr := newTestServer(t, func(c *Config) {
		c.Heap = heap(th)
		c.WALDir = walDir
		c.DeferRecovery = true
		c.NextID = func() prio.ElemID { return prio.ElemID(ids.Add(1)) }
	})
	return s, addr
}

// walWith writes k pending elements into a fresh WAL directory and
// returns it.
func walWith(t *testing.T, k int) string {
	t.Helper()
	walDir := t.TempDir()
	s, _, addr := newTestServer(t, func(c *Config) { c.WALDir = walDir })
	c := dial(t, addr)
	for i := 0; i < k; i++ {
		wantStatus(t, c.insert(uint64(i)), clientproto.StatusInserted)
	}
	s.Kill()
	return walDir
}

// TestDeleteUnavailableWhileRefilling: between a deferred recovery and its
// re-injection pass the heap lacks the recovered elements, so a delete is
// answered with the retryable StatusUnavailable, not ⊥; after the pass it
// gets them.
func TestDeleteUnavailableWhileRefilling(t *testing.T) {
	const k = 3
	s, addr := restartWith(t, walWith(t, k), func(th *testHeap) Heap { return resettableTestHeap{th} })
	c := dial(t, addr)
	for i := 0; i < 2; i++ {
		if resp := c.deleteMin(); resp.Status != clientproto.StatusUnavailable || !resp.Retryable() {
			t.Fatalf("delete before the re-injection pass: status %d code %d, want retryable StatusUnavailable", resp.Status, resp.Code)
		}
	}
	wantStatus(t, c.insert(9), clientproto.StatusInserted)
	if st := s.Stats(); st.Unavailable != 2 || st.Pending != k+1 {
		t.Fatalf("stats %+v: want 2 unavailable, %d pending", st, k+1)
	}
	if n := s.ReinjectPendingUnleased(nil); n != k {
		t.Fatalf("re-injected %d elements, want %d", n, k)
	}
	waitQuiesce(t, s)
	for i := 0; i < k+1; i++ {
		d := c.deleteMin()
		wantStatus(t, d, clientproto.StatusElem)
		wantStatus(t, c.ack(d.ID), clientproto.StatusAcked)
	}
	wantStatus(t, c.deleteMin(), clientproto.StatusBottom)
}

// TestRestarterWaitsOnEvents: the cold-start timeout only bounds the wait.
// A restarter that recovered nothing decides at once; one that recovered
// an element returns as soon as a reset lands, however long the timeout.
func TestRestarterWaitsOnEvents(t *testing.T) {
	run := func(t *testing.T, s *Server, h ResettableHeap) (*Reconciler, time.Duration) {
		t.Helper()
		r := &Reconciler{Server: s, Heap: h, ColdStartTimeout: time.Hour, SettleDelay: time.Millisecond}
		done := make(chan struct{})
		start := time.Now()
		go func() {
			r.RecoverAsRestarter()
			close(done)
		}()
		if hh, ok := h.(*signalTestHeap); ok {
			time.Sleep(50 * time.Millisecond)
			if r.Recovery().Decision != "" {
				t.Fatal("recovery decided before any reset landed")
			}
			hh.fire(3)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("RecoverAsRestarter still waiting after 10s")
		}
		return r, time.Since(start)
	}

	t.Run("nothing-recovered", func(t *testing.T) {
		var h ResettableHeap
		s, addr := restartWith(t, t.TempDir(), func(th *testHeap) Heap {
			rh := resettableTestHeap{th}
			h = rh
			return rh
		})
		r, took := run(t, s, h)
		if rec := r.Recovery(); rec.Decision != RecoveredNothing || rec.Reinjected != 0 {
			t.Fatalf("recovery %+v, want %s", rec, RecoveredNothing)
		}
		if took > time.Second {
			t.Fatalf("nothing to recover, yet the restarter took %v", took)
		}
		wantStatus(t, dial(t, addr).deleteMin(), clientproto.StatusBottom)
	})

	t.Run("reset", func(t *testing.T) {
		var h *signalTestHeap
		s, addr := restartWith(t, walWith(t, 1), func(th *testHeap) Heap {
			h = newSignalTestHeap(th)
			return h
		})
		r, _ := run(t, s, h)
		if rec := r.Recovery(); rec.Decision != RecoveredAfterReset || rec.Floor != 3 || rec.Reinjected != 1 {
			t.Fatalf("recovery %+v, want %s at floor 3 with 1 element", rec, RecoveredAfterReset)
		}
		waitQuiesce(t, s)
		c := dial(t, addr)
		d := c.deleteMin()
		wantStatus(t, d, clientproto.StatusElem)
		wantStatus(t, c.ack(d.ID), clientproto.StatusAcked)
	})
}
