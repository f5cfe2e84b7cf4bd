// Package serve is the production serving layer between the clientproto
// wire protocol and the heap protocols: it turns the daemon's raw
// "inject and answer on completion" loop into FOQS-style queue semantics.
//
//   - Lease-based DeleteMin: a delete hands the element to the client
//     under a lease. The client Acks (the element is settled for good),
//     Nacks (immediate reinsert), or lets the lease expire (automatic
//     reinsert). Every redelivery increments the element's delivery
//     counter, carried on StatusElem responses.
//   - Durability: accepted inserts and acks are written to a CRC-framed
//     write-ahead log (wal.go) and the client acknowledgement is gated on
//     the record being fsynced, so a SIGKILL-then-restart recovers the
//     exact acknowledged pending set and re-injects it into a fresh heap.
//   - Backpressure: a cap on in-flight heap operations rejects excess
//     requests with ErrOverloaded instead of queueing without bound, and
//     each connection's response queue is bounded with slow-reader
//     eviction (writer.go).
//
// The layer deliberately owns no protocol state: the heaps order, the
// serving layer remembers. Its source of truth is the pending set
// (accepted − acked elements), mirrored in memory and on disk.
package serve

import (
	"bufio"
	"errors"
	"net"
	"slices"
	"sync"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/prio"
	"dpq/internal/semantics"
)

// Heap is the protocol-side surface the serving layer drives. Insert maps
// a raw client priority into the protocol's universe; Reinsert re-injects
// an element exactly as a previous Insert recorded it (recovery and
// redelivery must not re-map an already-mapped priority).
type Heap interface {
	Insert(host int, id prio.ElemID, p uint64, payload string) *semantics.Op
	Reinsert(host int, e prio.Element) *semantics.Op
	Delete(host int) *semantics.Op
	Trace() *semantics.Trace
}

// Defaults for Config zero values.
const (
	DefaultLeaseTTL     = 30 * time.Second
	DefaultMaxInFlight  = 1 << 16
	DefaultMaxConnQueue = 1 << 14
)

// Config describes one serving layer instance.
type Config struct {
	Heap   Heap
	Hosts  []int              // local hosts; connections and recovery spread across them
	NextID func() prio.ElemID // unique element id source

	// WALDir enables durability when non-empty: accepted ops are logged
	// there and recovery re-injects the pending set at New.
	WALDir string
	// LeaseTTL is how long a delivered element stays leased before it is
	// reinserted for redelivery (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxInFlight caps heap operations accepted but not yet completed;
	// excess requests are rejected with ErrOverloaded (default
	// DefaultMaxInFlight; negative disables).
	MaxInFlight int
	// MaxConnQueue caps one connection's unwritten responses; a client
	// that stops reading past the cap is evicted (default
	// DefaultMaxConnQueue; negative disables).
	MaxConnQueue int
	// SnapshotEvery, when positive, writes a snapshot of the pending set
	// on that period, bounding both recovery replay work and (when the
	// log is quiescent) the log size itself.
	SnapshotEvery time.Duration

	// Multi-daemon durability. An element's WAL records live on the daemon
	// that accepted its insert, but the distributed heap can deliver it to
	// a client of any daemon — an ack must then reach the owner's log or a
	// later recovery resurrects a consumed element. Owner maps an element
	// id to its owning process (nil: everything is local); when an ack
	// settles a foreign element, PeerAck replicates it to the owner and
	// the client's response waits for done, so an acknowledged ack is
	// durable at the owner no matter which daemon served it.
	Proc    int
	Owner   func(prio.ElemID) int
	PeerAck func(owner int, id prio.ElemID, done func(error))

	// Partial-failure hooks. Degraded, when non-nil, reports whether the
	// cluster is currently degraded (a peer daemon down): the distributed
	// heap cannot complete operations while a subtree is dark, so inserts
	// are acknowledged on WAL durability alone (the heap op completes after
	// recovery; the response carries Value -1, no serialization value yet)
	// and deletes are parked with StatusUnavailable for the client to
	// retry. DeferRecovery postpones re-injection of the recovered pending
	// set: New loads it into the pending set but leaves the heap empty
	// until ReinjectPendingUnleased runs — a restarting daemon must first
	// learn from survivors which of its elements are still leased there.
	// Until then deletes are answered StatusUnavailable too: the heap
	// lacks the recovered elements, so a delete would return ⊥ or skip
	// them.
	Degraded      func() bool
	DeferRecovery bool

	Logf func(format string, args ...any)
}

// Stats is the serving layer's observability export (obs metrics JSON
// "serve" section).
type Stats struct {
	Served          int64 `json:"served"`   // operations answered with a result
	Rejected        int64 `json:"rejected"` // operations answered with StatusError
	LeasesGranted   int64 `json:"leasesGranted"`
	Acked           int64 `json:"acked"`
	RemoteAcks      int64 `json:"remoteAcks"` // peer-replicated acks expunged here
	Nacked          int64 `json:"nacked"`
	Expired         int64 `json:"expired"`      // leases that timed out
	Redeliveries    int64 `json:"redeliveries"` // deliveries beyond an element's first
	OverloadRejects int64 `json:"overloadRejects"`
	DegradedInserts int64 `json:"degradedInserts"` // inserts acked on WAL durability alone (peer down)
	Unavailable     int64 `json:"unavailable"`     // requests parked with StatusUnavailable
	ParkedAcks      int64 `json:"parkedAcks"`      // foreign acks parked for a down owner
	Reinjected      int64 `json:"reinjected"`      // elements re-injected by reconciliation
	EvictedConns    int64 `json:"evictedConns"`    // slow readers dropped at the queue cap
	Conns           int   `json:"conns"`           // currently connected clients
	InFlight        int   `json:"inFlight"`        // heap ops issued, not yet completed
	Leased          int   `json:"leased"`          // elements currently out under lease
	Pending         int   `json:"pending"`         // pending set size (heap + leased)
	ElemRecs        int   `json:"elemRecs"`        // heap-side table size (Server.elems)
	LeaseRecs       int   `json:"leaseRecs"`       // client-side table size: leases and delivery histories

	WAL WALStats `json:"wal"`
}

// pendingRef routes one heap op's completion back to its client.
type pendingRef struct {
	cw    *connWriter
	reqID uint64
	seq   uint64 // WAL seq the response must wait for (0: none)
}

// Server is one daemon's serving layer.
type Server struct {
	cfg  Config
	heap Heap
	wal  *WAL // nil without durability

	maxRecovered prio.ElemID // highest element id the WAL ever logged, at New

	mu      sync.Mutex
	pending map[*semantics.Op]pendingRef
	// elems is the heap side's table: admission, completion,
	// reconciliation and snapshots read it. Retirement rule: a record
	// goes when it is neither pending nor inside a live op (retireLocked).
	elems map[prio.ElemID]*elemState
	// leases is the client side's table (lease.go): settle, expiry and
	// lease scans read it. Retirement rule: a record goes on ack, or when
	// it is the delivery history of a non-pending element older than
	// historyTTLFactor × LeaseTTL (expireLeases).
	leases   map[prio.ElemID]*lease
	rheap    ResettableHeap // cfg.Heap when it supports resets, else nil
	conns    map[*connWriter]bool
	draining bool
	hostCtr  int
	stats    Stats // counters; the sizes are derived in statsLocked

	// refilling: DeferRecovery recovered elements that no re-injection
	// pass has put back into the heap yet.
	refilling bool

	// Durability gate: responses waiting for their WAL record to fsync.
	durMu   sync.Mutex
	durCond *sync.Cond
	durQ    []durWait
	durStop bool
	// durSpare is the batch releaseLoop last released, durQ's next backing
	// array (the two swap, as a connWriter's queues do).
	durSpare []durWait

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// elemState is the heap side's record of one element id.
type elemState struct {
	elem prio.Element
	// pending: owned here, in the pending set (accepted − acked) that the
	// WAL mirrors. A foreign element reinserted here after a nack or
	// expiry has a record with pending false while its op is live.
	pending bool
	// live counts in-flight insert/reinsert heap ops. An element with a
	// live op is inside the heap protocol's buffers — a partial-failure
	// reset re-buffers it there, so reconciliation must not re-inject it
	// a second time.
	live int
	// applied says a (re)insert op of the element applied in this process
	// lifetime, at reset floor appliedAt (reset-capable heaps only). An
	// element applied at or after the current floor is resident in the
	// heap (no reset has abandoned its position since; one that raced a
	// reset had its op re-buffered and re-executed by it), so
	// reconciliation must not re-inject it. What the WAL recovered and
	// nothing re-inserted yet is an orphan at any floor, 0 (a cold start)
	// included.
	applied   bool
	appliedAt uint64
}

// trackLocked returns e's record, creating it (caller holds s.mu).
func (s *Server) trackLocked(e prio.Element) *elemState {
	r := s.elems[e.ID]
	if r == nil {
		r = &elemState{elem: e}
		s.elems[e.ID] = r
	}
	return r
}

// retireLocked applies the heap table's retirement rule to id's record.
func (s *Server) retireLocked(id prio.ElemID, r *elemState) {
	if !r.pending && r.live == 0 {
		delete(s.elems, id)
	}
}

type durWait struct {
	seq  uint64
	cw   *connWriter
	resp clientproto.Response
}

// New builds the serving layer, recovering and re-injecting the durable
// pending set when cfg.WALDir is set. The heap's trace completion callback
// is installed here; injections may begin before the network engine ticks
// (they only buffer at the local virtual nodes).
func New(cfg Config) (*Server, error) {
	if cfg.Heap == nil || cfg.NextID == nil || len(cfg.Hosts) == 0 {
		return nil, errors.New("serve: Heap, NextID and Hosts are required")
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxConnQueue == 0 {
		cfg.MaxConnQueue = DefaultMaxConnQueue
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		heap:    cfg.Heap,
		pending: map[*semantics.Op]pendingRef{},
		elems:   map[prio.ElemID]*elemState{},
		leases:  map[prio.ElemID]*lease{},
		conns:   map[*connWriter]bool{},
		stop:    make(chan struct{}),
	}
	s.durCond = sync.NewCond(&s.durMu)
	s.rheap, _ = cfg.Heap.(ResettableHeap)
	s.heap.Trace().SetOnComplete(s.onComplete)

	if cfg.WALDir != "" {
		w, recovered, err := Open(cfg.WALDir)
		if err != nil {
			return nil, err
		}
		s.wal = w
		s.maxRecovered = w.MaxID()
		// Re-inject the recovered pending set round-robin across the local
		// hosts, before any client operation: per-host FIFO injection then
		// guarantees a client's deletes serialize after the recovery
		// inserts on the same host. Completions are silent (no client).
		// With DeferRecovery the elements only enter the pending set; the
		// reconciler injects them later, minus those still leased at
		// surviving peers (ReinjectPendingUnleased).
		for i, e := range recovered {
			s.trackLocked(e).pending = true
			if !cfg.DeferRecovery {
				s.reinsertLocked(cfg.Hosts[i%len(cfg.Hosts)], e)
			}
		}
		if len(recovered) > 0 {
			s.refilling = cfg.DeferRecovery
			cfg.Logf("recovered %d pending elements from %s (deferred=%v)", len(recovered), cfg.WALDir, cfg.DeferRecovery)
		}
	}

	s.wg.Add(2)
	go s.releaseLoop()
	go s.expiryLoop()
	if s.wal != nil && cfg.SnapshotEvery > 0 {
		s.wg.Add(1)
		go s.snapshotLoop(cfg.SnapshotEvery)
	}
	return s, nil
}

// snapshotLoop periodically persists the pending set. The capture is
// consistent by construction: the pending set and the WAL's last seq are
// read under the same lock that orders every append.
func (s *Server) snapshotLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			elems := s.pendingSetLocked()
			atSeq := s.wal.LastSeq()
			s.mu.Unlock()
			if err := s.wal.Snapshot(elems, atSeq); err != nil {
				s.cfg.Logf("snapshot: %v", err)
			}
		}
	}
}

// pendingSetLocked lists the pending set (caller holds s.mu).
func (s *Server) pendingSetLocked() []prio.Element {
	elems := make([]prio.Element, 0, len(s.elems))
	for _, r := range s.elems {
		if r.pending {
			elems = append(elems, r.elem)
		}
	}
	return elems
}

// Serve accepts client connections until the listener closes, pinning each
// to a local host round-robin. It returns when Accept fails.
func (s *Server) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		host := s.cfg.Hosts[s.hostCtr%len(s.cfg.Hosts)]
		s.hostCtr++
		s.mu.Unlock()
		s.startConn(conn, host)
	}
}

// startConn begins serving one accepted connection pinned to host.
func (s *Server) startConn(conn net.Conn, host int) {
	cw := newConnWriter(conn, s.cfg.MaxConnQueue)
	s.mu.Lock()
	s.conns[cw] = true
	s.mu.Unlock()
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		cw.writeLoop()
	}()
	go func() {
		defer s.wg.Done()
		s.serveConn(cw, host)
	}()
}

// serveConn reads one connection's requests and serves them in order on
// the pinned host. Well-delimited invalid requests are answered with their
// typed code and the connection keeps serving; only I/O-level failures end
// the session. The connection is untracked on return — a long-running
// daemon must not leak one entry per connection ever accepted.
func (s *Server) serveConn(cw *connWriter, host int) {
	defer func() {
		cw.closeGraceful()
		s.mu.Lock()
		delete(s.conns, cw)
		if cw.wasEvicted() {
			s.stats.EvictedConns++
		}
		s.mu.Unlock()
	}()
	dec := clientproto.NewDecoder(bufio.NewReader(cw.conn))
	var req clientproto.Request
	for {
		if err := dec.Request(&req); err != nil {
			var re *clientproto.ReqError
			if errors.As(err, &re) {
				s.mu.Lock()
				s.rejectLocked(cw, re.ReqID, re.Code)
				continue
			}
			return
		}
		if !s.handle(cw, host, &req) {
			return
		}
	}
}

// handle serves one request; false means the connection should end (the
// writer was evicted). req belongs to the connection's decoder and is
// overwritten by the next request: nothing may keep it.
func (s *Server) handle(cw *connWriter, host int, req *clientproto.Request) bool {
	switch req.Op {
	case clientproto.OpAck, clientproto.OpNack:
		return s.settle(cw, host, req)
	case clientproto.OpLeaseScan:
		return s.leaseScan(cw, req)
	}

	s.mu.Lock()
	if s.draining {
		return s.rejectLocked(cw, req.ReqID, clientproto.ErrShuttingDown)
	}
	if s.cfg.MaxInFlight > 0 && len(s.pending) >= s.cfg.MaxInFlight {
		s.stats.OverloadRejects++
		return s.rejectLocked(cw, req.ReqID, clientproto.ErrOverloaded)
	}
	degraded := s.cfg.Degraded != nil && s.cfg.Degraded()
	if (degraded || s.refilling) && req.Op == clientproto.OpDelete {
		// A dark subtree stalls the heap's serialization, so no delete can
		// complete; park the request retryably instead of wedging it. A
		// heap still waiting for its recovered elements would answer ⊥ or
		// skip them: same answer.
		s.stats.Unavailable++
		s.mu.Unlock()
		return cw.send(clientproto.Response{ReqID: req.ReqID, Status: clientproto.StatusUnavailable, Code: clientproto.ErrPeerUnavailable})
	}
	// Holding s.mu across inject+track closes the window in which the
	// protocol could complete the op before it is tracked; the WAL append
	// shares the critical section so the in-memory pending set and the log
	// always agree (the append only buffers — fsync happens in the WAL's
	// sync loop, and the client response waits for it via ref.seq).
	var op *semantics.Op
	var seq uint64
	if req.Op == clientproto.OpInsert {
		op = s.heap.Insert(host, s.cfg.NextID(), req.Prio, req.Payload)
		r := s.trackLocked(op.Elem)
		r.pending = true
		r.live++
		if s.wal != nil {
			seq = s.wal.AppendInsert(op.Elem)
		}
		if degraded {
			// The op stays buffered until the cluster heals; the client's
			// acceptance rests on WAL durability alone. Value -1 marks the
			// missing serialization value.
			s.stats.DegradedInserts++
			s.stats.Served++
			s.mu.Unlock()
			return s.reply(seq, cw, clientproto.Response{ReqID: req.ReqID, Status: clientproto.StatusInserted, ID: uint64(op.Elem.ID), Value: -1})
		}
	} else {
		op = s.heap.Delete(host)
	}
	s.pending[op] = pendingRef{cw: cw, reqID: req.ReqID, seq: seq}
	s.mu.Unlock()
	return true
}

// leaseScan answers one OpLeaseScan step: the smallest leased element id
// above the cursor (StatusElem, element named only) or StatusBottom when
// the scan is exhausted. Parked and settling leases are included — they
// are exactly the leases a reconciling peer must not re-inject under.
func (s *Server) leaseScan(cw *connWriter, req *clientproto.Request) bool {
	after := prio.ElemID(req.ID)
	var best prio.ElemID
	found := false
	s.mu.Lock()
	for id, l := range s.leases {
		if l.held() && id > after && (!found || id < best) {
			best, found = id, true
		}
	}
	s.stats.Served++
	s.mu.Unlock()
	if !found {
		return cw.send(clientproto.Response{ReqID: req.ReqID, Status: clientproto.StatusBottom})
	}
	return cw.send(clientproto.Response{ReqID: req.ReqID, Status: clientproto.StatusElem, ID: uint64(best)})
}

// settle serves an ack or nack for a leased element. Acks come in three
// flavours: a locally-owned element (log + respond), a foreign element
// (replicate the ack to its owner, respond when the owner has it durable),
// and a replicated ack arriving from a peer daemon for an element we own
// but never leased here (expunge from the pending set). The last path
// deliberately accepts acks without a lease when the id is pending — that
// is the peer-replication channel, and the cluster is mutually trusted.
func (s *Server) settle(cw *connWriter, host int, req *clientproto.Request) bool {
	id := prio.ElemID(req.ID)
	s.mu.Lock()
	if s.draining {
		return s.rejectLocked(cw, req.ReqID, clientproto.ErrShuttingDown)
	}
	// A lease whose ack is already in flight to the owner is not settled
	// a second time: that would race the first.
	l := s.heldLocked(id)
	if l != nil && l.settling {
		l = nil
	}
	if req.Op == clientproto.OpNack {
		if l == nil {
			return s.rejectLocked(cw, req.ReqID, clientproto.ErrUnknownLease)
		}
		// The element goes straight back into the heap on the lease's
		// host; the next delivery carries an incremented counter.
		s.endLeaseLocked(l, time.Now())
		s.stats.Nacked++
		s.stats.Served++
		s.mu.Unlock()
		return cw.send(clientproto.Response{ReqID: req.ReqID, Status: clientproto.StatusNacked, ID: req.ID})
	}
	if l != nil {
		if owner := s.ownerOf(id); owner != s.cfg.Proc && s.cfg.PeerAck != nil {
			// Foreign element: its durability records live on the owner.
			// The lease is marked in-flight (expiry keeps hands off) and
			// the client's response waits for the owner's durable ack.
			l.settling = true
			s.mu.Unlock()
			reqID := req.ReqID
			s.cfg.PeerAck(owner, id, func(err error) { s.settleRemote(cw, reqID, id, err) })
			return true
		}
		s.stats.Acked++
		return s.ackLocked(cw, req)
	}
	if r := s.elems[id]; r != nil && r.pending {
		// Replicated ack from the daemon that served the delivery: the
		// element we own leaves the pending set and the log, with any
		// delivery history recorded here (a local nack or expiry whose
		// redelivery happened on the other daemon).
		s.stats.RemoteAcks++
		return s.ackLocked(cw, req)
	}
	if req.Op == clientproto.OpAck && s.cfg.Owner != nil {
		// Only clustered deployments get idempotent ack fallthrough: a
		// client retrying after StatusUnavailable may race the flushed
		// parked ack that already settled its element. A single-daemon
		// server keeps the strict unknown-lease rejection.
		if owner := s.ownerOf(id); owner == s.cfg.Proc {
			// Locally owned but no longer pending: the element was already
			// settled (possibly by a parked ack flushed while the client was
			// retrying). Acks are idempotent — report success.
			s.stats.Served++
			s.mu.Unlock()
			return cw.send(clientproto.Response{ReqID: req.ReqID, Status: clientproto.StatusAcked, ID: req.ID})
		} else if s.cfg.PeerAck != nil {
			// Foreign element with no local lease: the lease may have lived
			// on a daemon that since crashed, or was settled by a flushed
			// parked ack. Forward to the owner, which answers idempotently.
			s.mu.Unlock()
			reqID := req.ReqID
			s.cfg.PeerAck(owner, id, func(err error) { s.settleRemote(cw, reqID, id, err) })
			return true
		}
	}
	return s.rejectLocked(cw, req.ReqID, clientproto.ErrUnknownLease)
}

// ackLocked settles an element at its owner, this daemon: the ack retires
// its lease record, takes it out of the pending set and is logged. It
// releases s.mu and answers once the ACK record is durable.
func (s *Server) ackLocked(cw *connWriter, req *clientproto.Request) bool {
	id := prio.ElemID(req.ID)
	delete(s.leases, id)
	if r := s.elems[id]; r != nil {
		r.pending = false
		s.retireLocked(id, r)
	}
	s.stats.Served++
	var seq uint64
	if s.wal != nil {
		seq = s.wal.AppendAck(id)
	}
	s.mu.Unlock()
	return s.reply(seq, cw, clientproto.Response{ReqID: req.ReqID, Status: clientproto.StatusAcked, ID: req.ID})
}

// settleRemote finishes a foreign-element ack once the owner daemon
// answered (or failed). On failure the lease stands and will expire into
// a redelivery — the client was never told the ack succeeded. A parked
// forward (owner down) keeps the lease in a parked-settling state with a
// stretched deadline and answers StatusUnavailable: the flush settles it
// when the owner recovers, or the stretched expiry redelivers.
func (s *Server) settleRemote(cw *connWriter, reqID uint64, id prio.ElemID, err error) {
	s.mu.Lock()
	l := s.heldLocked(id)
	if errors.Is(err, ErrAckParked) {
		if l != nil {
			l.settling = true
			l.parked = true
			l.deadline = time.Now().Add(parkedLeaseTTLFactor * s.cfg.LeaseTTL)
		}
		s.stats.ParkedAcks++
		s.stats.Unavailable++
		s.mu.Unlock()
		cw.send(clientproto.Response{ReqID: reqID, Status: clientproto.StatusUnavailable, Code: clientproto.ErrPeerUnavailable})
		return
	}
	if err != nil {
		if l != nil {
			l.settling = false
		}
		s.stats.Rejected++
		s.mu.Unlock()
		s.cfg.Logf("peer ack for element %d failed: %v", id, err)
		cw.send(clientproto.Response{ReqID: reqID, Status: clientproto.StatusError, Code: clientproto.ErrPeerUnavailable})
		return
	}
	delete(s.leases, id)
	s.stats.Acked++
	s.stats.Served++
	s.mu.Unlock()
	cw.send(clientproto.Response{ReqID: reqID, Status: clientproto.StatusAcked, ID: uint64(id)})
}

// ownerOf maps an element to the daemon holding its durability records.
func (s *Server) ownerOf(id prio.ElemID) int {
	if s.cfg.Owner == nil {
		return s.cfg.Proc
	}
	return s.cfg.Owner(id)
}

// reinsertLocked re-injects an element into the heap and tracks the live
// op (caller holds s.mu).
func (s *Server) reinsertLocked(host int, e prio.Element) {
	s.trackLocked(e).live++
	s.heap.Reinsert(host, e)
}

// reinjectableLocked reports whether id's record is an orphan that
// reconciliation must re-inject: pending, not inside a live heap op, not
// applied since the current reset floor (an element whose re-buffered op
// re-applied after the reset is already resident), and not leased here.
func (s *Server) reinjectableLocked(id prio.ElemID, r *elemState, floor uint64) bool {
	if !r.pending || r.live > 0 || (r.applied && r.appliedAt >= floor) {
		return false
	}
	return s.heldLocked(id) == nil
}

// ReinjectPendingUnleased re-injects, in ascending id order, every orphan
// of the pending set (reinjectableLocked) that is not in skip (ids leased
// at other live daemons, learned by a lease scan). It returns how many
// elements were re-injected. After a partial-failure reset the heap's
// occupied positions were abandoned wholesale, so every at-rest element
// must re-enter the serialization exactly once — its owner injects it,
// peers' leases suppress it.
func (s *Server) ReinjectPendingUnleased(skip map[prio.ElemID]bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var floor uint64
	if s.rheap != nil {
		floor = s.rheap.LastResetFloor()
	}
	var ids []prio.ElemID
	for id, r := range s.elems {
		if !skip[id] && s.reinjectableLocked(id, r, floor) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for i, id := range ids {
		s.reinsertLocked(s.cfg.Hosts[i%len(s.cfg.Hosts)], s.elems[id].elem)
	}
	s.stats.Reinjected += int64(len(ids))
	s.refilling = false
	return len(ids)
}

// refillPending reports whether a deferred recovery still has elements to
// re-inject (Config.DeferRecovery).
func (s *Server) refillPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refilling
}

// SettleParked resolves one parked foreign ack after its flush attempt:
// on success the lease is settled for good (the owner has the ack
// durable; the client was answered StatusUnavailable long ago), on
// failure the lease is unparked and expires promptly into a redelivery.
// Wire it to AckForwarder.OnParkFlush.
func (s *Server) SettleParked(id prio.ElemID, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.leases[id]
	if l == nil || !l.parked {
		return
	}
	if err != nil {
		l.parked = false
		l.settling = false
		l.deadline = time.Now()
		s.cfg.Logf("parked ack for element %d failed to flush: %v; lease will expire", id, err)
		return
	}
	delete(s.leases, id)
	s.stats.Acked++
}

// rejectLocked answers a request with a typed error code instead of
// serving it, releasing s.mu.
func (s *Server) rejectLocked(cw *connWriter, reqID uint64, code clientproto.ErrCode) bool {
	s.stats.Rejected++
	s.mu.Unlock()
	return cw.send(clientproto.Response{ReqID: reqID, Status: clientproto.StatusError, Code: code})
}

// onComplete answers the client that issued op (ops injected by recovery
// or redelivery complete silently). Insert and ack responses are gated on
// their WAL record being durable; a delete's element is leased before the
// response is enqueued, so a client can ack the instant it reads it.
func (s *Server) onComplete(op *semantics.Op) {
	s.mu.Lock()
	if op.Kind == semantics.Insert {
		if r := s.elems[op.Elem.ID]; r != nil {
			if r.live > 0 { // a repeated completion must not count twice
				r.live--
			}
			if s.rheap != nil && r.pending {
				r.applied, r.appliedAt = true, s.rheap.LastResetFloor()
			}
			s.retireLocked(op.Elem.ID, r)
		}
	}
	ref, ok := s.pending[op]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.pending, op)
	s.stats.Served++
	resp := clientproto.Response{ReqID: ref.reqID, Value: op.Value}
	switch {
	case op.Kind == semantics.Insert:
		resp.Status = clientproto.StatusInserted
		resp.ID = uint64(op.Elem.ID)
	case op.Result.Nil():
		resp.Status = clientproto.StatusBottom
	default:
		resp.Status = clientproto.StatusElem
		resp.ID = uint64(op.Result.ID)
		resp.Prio = uint64(op.Result.Prio)
		resp.Deliveries = s.grantLease(op.Result, op.Node)
	}
	s.mu.Unlock()
	if !s.reply(ref.seq, ref.cw, resp) && resp.Status == clientproto.StatusElem {
		// The deliveree vanished before the response could be queued; its
		// lease stands and expires into a redelivery.
		s.cfg.Logf("dropped delivery of element %d to a dead client; lease will expire", resp.ID)
	}
}

// reply sends resp now, or when seq is non-zero, enqueues it for delivery
// once that WAL record is fsynced. It reports false only when an immediate
// send found the connection gone.
func (s *Server) reply(seq uint64, cw *connWriter, resp clientproto.Response) bool {
	if seq == 0 {
		return cw.send(resp)
	}
	s.durMu.Lock()
	s.durQ = append(s.durQ, durWait{seq: seq, cw: cw, resp: resp})
	s.durMu.Unlock()
	s.durCond.Signal()
	return true
}

// releaseLoop delivers durability-gated responses in arrival order. Seqs
// are assigned in append order and the WAL syncs whole batches, so waiting
// on each entry's seq in turn never inverts readiness.
func (s *Server) releaseLoop() {
	defer s.wg.Done()
	for {
		s.durMu.Lock()
		for len(s.durQ) == 0 && !s.durStop {
			s.durCond.Wait()
		}
		if len(s.durQ) == 0 && s.durStop {
			s.durMu.Unlock()
			return
		}
		batch := s.durQ
		s.durQ, s.durSpare = s.durSpare[:0], nil
		s.durMu.Unlock()
		for _, w := range batch {
			if err := s.wal.WaitDurable(w.seq); err != nil {
				// Durability lost (I/O error or shutdown): the client must
				// not see success for a record that may not survive.
				s.cfg.Logf("wal: %v; failing response %d", err, w.resp.ReqID)
				w.cw.send(clientproto.Response{ReqID: w.resp.ReqID, Status: clientproto.StatusError, Code: clientproto.ErrShuttingDown})
				continue
			}
			w.cw.send(w.resp)
		}
		if cap(batch) <= keepQueue {
			clear(batch) // drop the connWriters it names
			s.durMu.Lock()
			s.durSpare = batch
			s.durMu.Unlock()
		}
	}
}

// Drain stops accepting new operations: every subsequent request is
// answered ErrShuttingDown. In-flight heap ops keep completing.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Quiesced reports whether every issued heap operation has completed.
func (s *Server) Quiesced() bool {
	tr := s.heap.Trace()
	return tr.DoneCount() == tr.Len()
}

// CloseConns force-closes every tracked client connection.
func (s *Server) CloseConns() {
	s.mu.Lock()
	conns := make([]*connWriter, 0, len(s.conns))
	for cw := range s.conns {
		conns = append(conns, cw)
	}
	s.mu.Unlock()
	for _, cw := range conns {
		cw.close()
	}
}

// Shutdown stops the background loops, writes a final snapshot of the
// pending set (leased elements included — their leases die with the
// process and they redeliver after recovery) and closes the WAL. The
// returned stats are the final ones, taken atomically after all serving
// stopped, so a caller's printed verdict cannot disagree with reality.
func (s *Server) Shutdown() (Stats, error) {
	s.stopOnce.Do(func() { close(s.stop) })
	s.durMu.Lock()
	s.durStop = true
	s.durMu.Unlock()
	s.durCond.Broadcast()
	s.CloseConns()
	s.wg.Wait()

	var err error
	s.mu.Lock()
	st := s.statsLocked()
	if s.wal != nil {
		elems := s.pendingSetLocked()
		atSeq := s.wal.LastSeq()
		s.mu.Unlock()
		err = s.wal.Snapshot(elems, atSeq)
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
		s.mu.Lock()
		st.WAL = s.wal.Stats()
	}
	s.mu.Unlock()
	return st, err
}

// Kill stops the serving layer like a process death: loops stop, clients
// drop, and the WAL file closes with NO final snapshot or drain. Only what
// the sync loop already made (or now makes) durable survives — the
// fault-injection hook behind the kill-restart harness tests. The next
// Open of the same directory recovers the acknowledged pending set.
func (s *Server) Kill() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.durMu.Lock()
	s.durStop = true
	s.durMu.Unlock()
	s.durCond.Broadcast()
	s.CloseConns()
	s.wg.Wait()
	if s.wal != nil {
		s.wal.Close()
	}
}

// MaxRecoveredID returns the highest element id this daemon's WAL had
// ever logged when the server opened it — acked elements included — or
// zero without durability. A restarted daemon must seed its id generator
// past this value: recovered elements keep their pre-crash ids, and a
// counter restarting at zero would re-mint them, collapsing two live
// elements onto one record per table so that a single ACK record
// expunges both on the next replay.
func (s *Server) MaxRecoveredID() prio.ElemID { return s.maxRecovered }

// Stats returns a point-in-time copy of the serving counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.statsLocked()
	s.mu.Unlock()
	if s.wal != nil {
		st.WAL = s.wal.Stats()
	}
	return st
}

// statsLocked copies the counters and derives the sizes from the tables
// (caller holds s.mu).
func (s *Server) statsLocked() Stats {
	st := s.stats
	for _, r := range s.elems {
		if r.pending {
			st.Pending++
		}
	}
	for _, l := range s.leases {
		if l.held() {
			st.Leased++
		}
	}
	st.ElemRecs, st.LeaseRecs = len(s.elems), len(s.leases)
	st.InFlight, st.Conns = len(s.pending), len(s.conns)
	return st
}
