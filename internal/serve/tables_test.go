package serve

import (
	"sync/atomic"
	"testing"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/prio"
)

// TestServeStateRetires: every per-element record the serving layer keeps
// is retired by its table's rule. Replicated acks for pending unleased
// ids, re-injection, inserts, deletes, nacks (a foreign element's too),
// acks and lease expiries all pass through one daemon; drained, both
// tables are empty.
func TestServeStateRetires(t *testing.T) {
	const ttl = 300 * time.Millisecond
	walDir := t.TempDir()
	s1, _, addr1 := newTestServer(t, func(c *Config) { c.WALDir = walDir })
	c1 := dial(t, addr1)
	for i := 0; i < 4; i++ {
		wantStatus(t, c1.insert(uint64(10+i)), clientproto.StatusInserted) // ids 1..4
	}
	s1.Kill()

	// The restart defers recovery: ids 1..4 are pending and unleased, in
	// no heap, as after a crash whose elements were delivered at a peer.
	var ids atomic.Uint64
	ids.Store(100)
	s, th, addr := newTestServer(t, func(c *Config) {
		c.WALDir = walDir
		c.DeferRecovery = true
		c.LeaseTTL = ttl
		c.NextID = func() prio.ElemID { return prio.ElemID(ids.Add(1)) }
	})
	c := dial(t, addr)
	check := func(stage string, elemRecs, leaseRecs, leased int) {
		t.Helper()
		st := s.Stats()
		if st.ElemRecs != elemRecs || st.LeaseRecs != leaseRecs || st.Leased != leased {
			t.Fatalf("%s: ElemRecs %d LeaseRecs %d Leased %d, want %d %d %d",
				stage, st.ElemRecs, st.LeaseRecs, st.Leased, elemRecs, leaseRecs, leased)
		}
	}
	check("recovered", 4, 0, 0)
	wantStatus(t, c.ack(1), clientproto.StatusAcked) // replicated acks
	wantStatus(t, c.ack(2), clientproto.StatusAcked)
	check("replicated acks", 2, 0, 0)
	if n := s.ReinjectPendingUnleased(nil); n != 2 {
		t.Fatalf("re-injected %d elements, want 2", n)
	}
	for i := 0; i < 4; i++ {
		wantStatus(t, c.insert(uint64(i)), clientproto.StatusInserted)
	}
	// A foreign element (pending at another daemon) in this daemon's heap.
	const foreign = 1 << 50
	th.Reinsert(0, prio.Element{ID: foreign, Prio: 5})
	waitQuiesce(t, s)
	check("loaded", 6, 0, 0) // the foreign record retired with its op

	const total = 7
	var got [total]uint64
	for i := range got {
		d := c.deleteMin()
		wantStatus(t, d, clientproto.StatusElem)
		got[i] = d.ID
	}
	check("leased", 6, total, total)
	for _, id := range got {
		wantStatus(t, c.nack(id), clientproto.StatusNacked)
	}
	waitQuiesce(t, s)
	check("nacked", 6, total, 0) // seven histories; the foreign record retired again

	// Redeliver all; ack three (the foreign one among them), and let four
	// leases expire.
	acked := 0
	for i := 0; i < total; i++ {
		d := c.deleteMin()
		wantStatus(t, d, clientproto.StatusElem)
		if d.Deliveries != 2 {
			t.Fatalf("element %d redelivered with count %d, want 2", d.ID, d.Deliveries)
		}
		if i < 2 || d.ID == foreign {
			wantStatus(t, c.ack(d.ID), clientproto.StatusAcked)
			acked++
		}
	}
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Expired < int64(total-acked); {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d leases expired", s.Stats().Expired, total-acked)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Drain: deliver and ack until the heap is empty. An ack may lose a
	// race with expiry; the element then comes round again.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if time.Now().After(deadline) {
			t.Fatalf("never drained: %+v", s.Stats())
		}
		d := c.deleteMin()
		if d.Status == clientproto.StatusBottom {
			if s.Stats().Pending == 0 {
				break
			}
			time.Sleep(10 * time.Millisecond) // an expired lease is reinserting
			continue
		}
		wantStatus(t, d, clientproto.StatusElem)
		if r := c.ack(d.ID); r.Status != clientproto.StatusAcked {
			wantErr(t, r, clientproto.ErrUnknownLease)
		}
	}
	waitQuiesce(t, s)
	st := s.Stats()
	if st.ElemRecs != 0 || st.LeaseRecs != 0 || st.Pending != 0 || st.Leased != 0 || st.InFlight != 0 {
		t.Fatalf("drained daemon keeps state: ElemRecs %d LeaseRecs %d Pending %d Leased %d InFlight %d",
			st.ElemRecs, st.LeaseRecs, st.Pending, st.Leased, st.InFlight)
	}
	if st.RemoteAcks != 2 || st.Nacked != total || st.Expired < int64(total-acked) {
		t.Fatalf("stats %+v: want 2 replicated acks, %d nacks, ≥ %d expiries", st, total, total-acked)
	}
}
