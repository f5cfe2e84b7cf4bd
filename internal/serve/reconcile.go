// Reconciler drives the serving layer's response to daemon crashes and
// rejoins. It owns the ordering that makes restart reconciliation safe:
//
//	rejoin observed ─▶ anchor injects cluster reset ─▶ local reset floor
//	advances ─▶ settle window (late pre-reset deliveries finish or abort)
//	─▶ scan surviving daemons' leases ─▶ re-inject locally-owned pending
//	elements nobody holds ─▶ flush parked acks to the rejoined owner
//
// Each daemon runs its own Reconciler over its own pending set; scans are
// cross-daemon so an element leased anywhere in the cluster is never
// re-injected. The reset (skeap.ResetMsg) abandons every pre-crash heap
// position first, so re-injection cannot double-deliver against a
// surviving DHT cell: the cell is orphaned, only the re-injected copy is
// reachable. The settle window bounds the one remaining race — a Phase-4
// fetch issued before the reset that completes at another daemon after
// our lease scan; such fetches are aborted when the ResetMsg lands, and
// the window gives stragglers time to land.
package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/prio"
)

// Reconciler sequences partial-failure recovery for one daemon. Configure
// every field before wiring it into the engine's callbacks; methods are
// safe from any goroutine but must NOT be called from the engine's run
// goroutine (they block on protocol progress that goroutine drives).
type Reconciler struct {
	// Server is the local serving layer whose pending set is reconciled.
	Server *Server
	// Heap is the local protocol heap; reconciliation requires the reset
	// protocol, so only Skeap qualifies.
	Heap ResettableHeap
	// Fwd is the local ack forwarder; the Reconciler parks it when an
	// owner dies and flushes it once reconciliation with the rejoined
	// owner is done.
	Fwd *AckForwarder
	// AnchorLocal is true on the daemon whose process owns the anchor
	// virtual node: that daemon injects the cluster reset, the others
	// wait to observe it.
	AnchorLocal bool
	// Peers holds every daemon's client address, indexed by process.
	Peers []string
	// Proc is the local process index (the Peers entry to skip).
	Proc int
	// ResetTimeout bounds the wait for the reset floor to advance after a
	// rejoin (default 10s). On timeout the survivor skips re-injection —
	// without a reset, re-injecting could duplicate elements still
	// resident in live heap cells.
	ResetTimeout time.Duration
	// ColdStartTimeout bounds a restarter's wait for a survivor-driven
	// reset when its WAL recovered pending elements (default 2s). A
	// full-cluster restart produces no rejoin events anywhere, so no reset
	// ever comes; the timeout path then re-injects against an empty heap,
	// which is trivially safe. A restarter that recovered nothing does not
	// wait at all.
	ColdStartTimeout time.Duration
	// SettleDelay is the quiescence window between observing the reset
	// floor and scanning leases (default 250ms). It lets in-flight
	// pre-reset deliveries land (and be leased, hence skipped) or abort.
	SettleDelay time.Duration
	// Logf receives progress lines; nil silences them.
	Logf func(string, ...any)

	mu sync.Mutex // serializes reconciliations

	dmu       sync.Mutex
	downFloor map[int]uint64 // reset floor when each peer was marked down
	recovery  Recovery       // RecoverAsRestarter's outcome
}

// Recovery is how a restarter's deferred recovery went (dpqd reports it as
// the "recovery" metrics extra).
type Recovery struct {
	// Decision is "" until RecoverAsRestarter returns, then one of
	// RecoveredNothing, RecoveredAfterReset or RecoveredColdStart.
	Decision   string  `json:"decision"`
	Floor      uint64  `json:"floor"`      // reset floor waited for (RecoveredAfterReset)
	Reinjected int     `json:"reinjected"` // elements re-injected
	Seconds    float64 `json:"seconds"`    // from the call to the re-injection pass's end
}

// The recovery decisions.
const (
	RecoveredNothing    = "nothing-recovered"  // the WAL held no pending element: no wait
	RecoveredAfterReset = "reset"              // a survivor's reset landed, then re-injection
	RecoveredColdStart  = "cold-start-timeout" // no reset within ColdStartTimeout: full-cluster restart
)

func (r *Reconciler) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func (r *Reconciler) resetTimeout() time.Duration {
	if r.ResetTimeout > 0 {
		return r.ResetTimeout
	}
	return 10 * time.Second
}

func (r *Reconciler) coldStartTimeout() time.Duration {
	if r.ColdStartTimeout > 0 {
		return r.ColdStartTimeout
	}
	return 2 * time.Second
}

func (r *Reconciler) settleDelay() time.Duration {
	if r.SettleDelay > 0 {
		return r.SettleDelay
	}
	return 250 * time.Millisecond
}

// PeerDown reacts to the failure detector marking proc down: foreign-ack
// forwards to it start parking. Safe to call from event callbacks — it
// does not block.
func (r *Reconciler) PeerDown(proc int) {
	r.logf("reconcile: peer %d down, parking its acks", proc)
	r.dmu.Lock()
	if r.downFloor == nil {
		r.downFloor = map[int]uint64{}
	}
	if _, ok := r.downFloor[proc]; !ok {
		// Baseline for the rejoin-time reset wait. The anchor's reset can
		// land before our own rejoin event fires (it only needs ONE daemon
		// to observe the rejoin first); comparing against the down-time
		// floor recognizes that reset instead of waiting for a second one.
		r.downFloor[proc] = r.Heap.LastResetFloor()
	}
	r.dmu.Unlock()
	if r.Fwd != nil {
		r.Fwd.SetPeerDown(proc, true)
	}
}

// PeerRejoined reconciles with a peer daemon that restarted (new
// incarnation observed). Call from a fresh goroutine, never the engine's
// run goroutine. The anchor-local daemon injects the cluster reset; every
// daemon then waits for its local nodes to apply it, lets stragglers
// settle, re-injects its own orphaned pending elements, and finally
// un-parks the rejoined owner's ack queue.
func (r *Reconciler) PeerRejoined(proc int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dmu.Lock()
	prev, sawDown := r.downFloor[proc]
	delete(r.downFloor, proc)
	r.dmu.Unlock()
	if !sawDown {
		// Rejoin without a preceding down event (restart faster than the
		// detector): no reset can have landed yet on the peer's account.
		prev = r.Heap.LastResetFloor()
	}
	if r.AnchorLocal {
		r.Heap.InjectReset()
	}
	if _, ok := r.waitFloorAbove(prev, r.resetTimeout()); !ok {
		// No reset observed (the anchor's daemon may be the one that
		// died — a documented single point of failure). Re-injecting
		// without a reset risks duplicating elements still reachable in
		// the heap, so skip it; parked acks still flush.
		r.logf("reconcile: peer %d rejoined but no reset landed within %v; skipping re-injection", proc, r.resetTimeout())
		if r.Fwd != nil {
			r.Fwd.SetPeerDown(proc, false)
		}
		return
	}
	time.Sleep(r.settleDelay())
	n := r.reinjectAfterScan()
	if r.Fwd != nil {
		r.Fwd.SetPeerDown(proc, false)
	}
	r.logf("reconcile: peer %d rejoined, floor %d, re-injected %d elements", proc, r.Heap.LastResetFloor(), n)
}

// RecoverAsRestarter completes this daemon's own crash recovery: its WAL
// replay repopulated the pending set (Config.DeferRecovery left the heap
// untouched), and once the survivors' reset lands, every pending element
// not leased at a survivor is injected fresh. Call from a goroutine after
// the engine starts. A full-cluster restart sees no reset (nobody
// observed a rejoin) and proceeds after ColdStartTimeout — correct, since
// the heap is then empty on every daemon. A WAL that recovered nothing
// pending (a fresh directory, or every insert acked) leaves nothing a
// reset could make safe to re-inject, so recovery ends at once.
func (r *Reconciler) RecoverAsRestarter() {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	rec := Recovery{Decision: RecoveredNothing}
	if r.Server.refillPending() {
		var ok bool
		if rec.Floor, ok = r.waitFloorAbove(0, r.coldStartTimeout()); ok {
			rec.Decision = RecoveredAfterReset
			time.Sleep(r.settleDelay())
		} else {
			rec.Decision = RecoveredColdStart
		}
		rec.Reinjected = r.reinjectAfterScan()
	}
	rec.Seconds = time.Since(start).Seconds()
	r.dmu.Lock()
	r.recovery = rec
	r.dmu.Unlock()
	switch rec.Decision {
	case RecoveredAfterReset:
		r.logf("reconcile: recovery decision: waited for reset floor %d (%.3fs)", rec.Floor, rec.Seconds)
	case RecoveredColdStart:
		r.logf("reconcile: recovery decision: no reset within %v, cold start (%.3fs)", r.coldStartTimeout(), rec.Seconds)
	default:
		r.logf("reconcile: recovery decision: nothing recovered (%.3fs)", rec.Seconds)
	}
	r.logf("reconcile: restarter re-injected %d elements", rec.Reinjected)
}

// Recovery returns RecoverAsRestarter's outcome (the zero Recovery while
// it runs or if it never ran).
func (r *Reconciler) Recovery() Recovery {
	r.dmu.Lock()
	defer r.dmu.Unlock()
	return r.recovery
}

// waitFloorAbove waits, at most timeout, for the heap to apply a reset
// that lifts the local reset floor above prev, and returns that floor.
func (r *Reconciler) waitFloorAbove(prev uint64, timeout time.Duration) (uint64, bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		applied := r.Heap.ResetSignal()
		if floor := r.Heap.LastResetFloor(); floor > prev {
			return floor, true
		}
		select {
		case <-applied:
		case <-deadline.C:
			return 0, false
		}
	}
}

// reinjectAfterScan gathers every live peer's lease set and re-injects
// the local pending elements nobody holds. Unreachable peers contribute
// nothing to the skip set — their leases died with them, which is exactly
// when their elements must be re-injected.
func (r *Reconciler) reinjectAfterScan() int {
	skip := map[prio.ElemID]bool{}
	for proc, addr := range r.Peers {
		if proc == r.Proc || addr == "" {
			continue
		}
		ids, err := scanPeerLeases(addr)
		if err != nil {
			r.logf("reconcile: lease scan of peer %d (%s) failed: %v", proc, addr, err)
			continue
		}
		for _, id := range ids {
			skip[id] = true
		}
	}
	return r.Server.ReinjectPendingUnleased(skip)
}

// scanPeerLeases walks one daemon's lease set with OpLeaseScan cursors
// and returns every element id it currently has handed out (parked and
// settling leases included — those elements must not be re-injected).
func scanPeerLeases(addr string) ([]prio.ElemID, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	bw := bufio.NewWriter(conn)
	dec := clientproto.NewDecoder(bufio.NewReader(conn))
	var resp clientproto.Response
	var ids []prio.ElemID
	var cursor uint64
	for reqID := uint64(1); ; reqID++ {
		err := clientproto.WriteRequest(bw, &clientproto.Request{ReqID: reqID, Op: clientproto.OpLeaseScan, ID: cursor})
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			return ids, err
		}
		if err := dec.Response(&resp); err != nil {
			return ids, err
		}
		switch resp.Status {
		case clientproto.StatusElem:
			ids = append(ids, prio.ElemID(resp.ID))
			cursor = resp.ID
		case clientproto.StatusBottom:
			return ids, nil
		default:
			return ids, fmt.Errorf("lease scan: unexpected status %d", resp.Status)
		}
	}
}
