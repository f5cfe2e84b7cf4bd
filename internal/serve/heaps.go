// The adapter binding the heap protocols to the serving layer. The crucial
// asymmetry: Insert maps a raw client priority into the protocol's
// universe, while Reinsert replays an element whose priority was already
// mapped by the original Insert — re-mapping would corrupt it (p%bound+1
// is not idempotent at p = bound), so recovery and redelivery always go
// through Reinsert.
package serve

import (
	"dpq/internal/ldb"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// ProtocolHeap widens Heap with the engine-wiring hooks cmd/dpqd needs.
type ProtocolHeap interface {
	Heap
	Handlers() []sim.Handler
	Overlay() *ldb.Overlay
	SetObs(c *obs.Collector)
}

// backendHeap serves any relax.Backend: client priorities fold into its
// universe [1, bound] — Skeap's constant classes, Seap's and the relaxation
// engine's poly(n) range alike, so a relaxed daemon is drop-in comparable
// with a strict one under the same load. Leases, the WAL and redelivery
// compose untouched whichever protocol runs: the serving layer only sees
// completed operations.
type backendHeap struct {
	relax.Backend
	bound uint64
}

// NewHeap serves be, whose priority universe is [1, bound].
func NewHeap(be relax.Backend, bound uint64) ProtocolHeap { return backendHeap{be, bound} }

func (q backendHeap) Insert(host int, id prio.ElemID, p uint64, payload string) *semantics.Op {
	return q.InjectInsert(host, id, p%q.bound+1, payload)
}
func (q backendHeap) Reinsert(host int, e prio.Element) *semantics.Op {
	return q.InjectInsert(host, e.ID, q.Priority(e), e.Payload)
}
func (q backendHeap) Delete(host int) *semantics.Op { return q.InjectDelete(host) }

// ResettableHeap is implemented by protocol heaps that support the
// partial-failure reset protocol (Skeap). The Reconciler requires it;
// Seap does not implement it and is gated to single-daemon deployments.
type ResettableHeap interface {
	// InjectReset asks the anchor (which must be local) to broadcast a
	// cluster-wide iteration reset on its next activation.
	InjectReset()
	// LastResetFloor reports the highest reset floor any local virtual
	// node has applied (0 before the first reset).
	LastResetFloor() uint64
	// ResetSignal returns a channel closed when a local node next applies
	// a reset; take it before reading LastResetFloor.
	ResetSignal() <-chan struct{}
}

// NewSkeapHeap serves a skeap heap whose priority universe has p classes.
// It alone is also a ResettableHeap.
func NewSkeapHeap(h *skeap.Heap, p int) ProtocolHeap {
	return struct {
		backendHeap
		ResettableHeap
	}{backendHeap{relax.WrapSkeap(h), uint64(p)}, h}
}

// NewSeapHeap serves a seap heap (sequentially consistent variant) with
// the given priority bound.
func NewSeapHeap(h *seap.Heap, bound uint64) ProtocolHeap { return NewHeap(relax.WrapSeap(h), bound) }
