// Lease bookkeeping: a delivered element stays pending until the client
// settles it. The state machine per element:
//
//	in heap ──DeleteMin──▶ leased ──Ack──▶ gone (WAL: ACK)
//	   ▲                      │
//	   └──Nack / TTL expiry───┘   (reinsert; deliveries++)
//
// Leases are keyed by element id and not bound to a connection, so a
// client may ack on a different connection than the one that received the
// delivery. A crash drops all leases; recovery re-injects every unacked
// element, which is exactly the "lease implicitly expired" transition.
package serve

import (
	"time"

	"dpq/internal/prio"
)

// lease is the client side's record of one element id: the current lease
// while the element is handed out, then, once a nack or expiry ends it,
// the delivery history the element's next lease counts on from. In a
// multi-daemon cluster that next delivery (or the settling ack) may happen
// on another daemon, so expireLeases ages out the histories of elements
// not pending here. Delivery counters are soft state (they already reset
// across a crash), so an aged-out count merely restarts at 1.
type lease struct {
	elem       prio.Element
	host       int       // host to reinsert on when the lease dies
	deadline   time.Time // expiry instant
	ended      time.Time // when a nack or expiry ended the lease; zero while held
	deliveries uint32    // deliveries so far, the current one included
	settling   bool      // an ack is replicating to the owner daemon; hands off
	// parked marks a settling ack waiting for a down owner daemon: the
	// deadline is stretched (parkedLeaseTTLFactor) so the flushed ack
	// normally wins, but a permanently dead owner cannot strand the lease
	// — past the stretched deadline it expires into a redelivery.
	parked bool
}

// held reports whether the record is a current lease, not a history.
func (l *lease) held() bool { return l.ended.IsZero() }

// parkedLeaseTTLFactor stretches a parked lease's deadline: the parked
// ack should settle on the owner's recovery well before the element is
// given up on and redelivered.
const parkedLeaseTTLFactor = 8

// historyTTLFactor × LeaseTTL is how long the delivery history of an
// element not pending here outlives its lease.
const historyTTLFactor = 8

// heldLocked returns id's current lease, or nil (caller holds s.mu).
func (s *Server) heldLocked(id prio.ElemID) *lease {
	if l := s.leases[id]; l != nil && l.held() {
		return l
	}
	return nil
}

// grantLease records e as leased to whoever reads the response, counting
// on from its delivery history. Caller holds s.mu. Returns the delivery
// counter for the response.
func (s *Server) grantLease(e prio.Element, host int) uint32 {
	l := s.leases[e.ID]
	if l == nil {
		l = &lease{}
		s.leases[e.ID] = l
	}
	*l = lease{elem: e, host: host, deadline: time.Now().Add(s.cfg.LeaseTTL), deliveries: l.deliveries + 1}
	s.stats.LeasesGranted++
	if l.deliveries > 1 {
		s.stats.Redeliveries++
	}
	return l.deliveries
}

// endLeaseLocked ends a held lease by nack or expiry at now: the record
// becomes the element's delivery history and the element goes back into
// the heap on the lease's host (caller holds s.mu).
func (s *Server) endLeaseLocked(l *lease, now time.Time) {
	l.ended = now
	l.settling, l.parked = false, false
	s.reinsertLocked(l.host, l.elem)
}

// expiryLoop scans for overdue leases and reinserts their elements. The
// scan period tracks the TTL so expiry latency stays within ~TTL/4.
func (s *Server) expiryLoop() {
	defer s.wg.Done()
	period := s.cfg.LeaseTTL / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.expireLeases(time.Now())
		}
	}
}

// expireLeases ends every lease overdue at now, reinserting its element,
// and retires the aged-out histories of elements not pending here: such an
// element may have settled (or redelivered) on another daemon, and nothing
// else would ever reclaim the record. Draining suppresses the scan so a
// shutting-down daemon can quiesce; the elements stay pending and survive
// into the final snapshot.
func (s *Server) expireLeases(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	maxAge := historyTTLFactor * s.cfg.LeaseTTL
	for id, l := range s.leases {
		switch {
		case !l.held():
			if r := s.elems[id]; (r == nil || !r.pending) && now.Sub(l.ended) > maxAge {
				delete(s.leases, id)
			}
		case now.Before(l.deadline), l.settling && !l.parked:
		default:
			// A parked lease past its stretched deadline is given up on:
			// the owner never recovered in time, so the element redelivers
			// (the straggling parked ack, if it ever flushes, settles
			// idempotently).
			s.endLeaseLocked(l, now)
			s.stats.Expired++
		}
	}
}
