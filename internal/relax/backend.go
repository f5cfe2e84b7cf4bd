package relax

import (
	"fmt"

	"dpq/internal/ldb"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// Backend is everything a driver must know to run a heap protocol,
// whichever runs underneath: the exact Skeap/Seap protocols (via the
// wrappers below) or the relaxation engine (*Heap implements it directly).
// The facade, the serving layer, the sweep and the simulator command all
// drive this one interface on a sim.Engine built from Spec.
//
// Priorities are always the caller's 1-based values; a wrapper owns any
// protocol-internal remapping, in both directions.
type Backend interface {
	InjectInsert(host int, id prio.ElemID, p uint64, payload string) *semantics.Op
	InjectDelete(host int) *semantics.Op
	// Priority inverts InjectInsert's mapping: the caller's priority of an
	// element as the protocol stored and delivered it.
	Priority(e prio.Element) uint64

	Trace() *semantics.Trace
	// Done reports whether every injected operation has completed.
	Done() bool
	// Check replays the trace against the guarantee the heap was
	// configured to give.
	Check() *semantics.Report

	// Batches counts the batches the anchor has started (Skeap iterations,
	// Seap cycles). By default the anchor starts them itself;
	// SetAutoRepeat(false) hands that to the driver, which starts exactly
	// one with StartBatch in the anchor's context.
	Batches() int
	SetAutoRepeat(on bool)
	StartBatch(ctx *sim.Context)

	Handlers() []sim.Handler
	Overlay() *ldb.Overlay
	SetObs(c *obs.Collector)
	// Spec is the heap's wiring as the start of an engine description.
	Spec(kind sim.EngineKind) sim.Spec
}

// Membership is the dynamic-membership face (§1.4(4)) of the strict heaps;
// the relaxation engine has none. Changes apply to a quiescent heap with
// auto-repeat off; eng must be the heap's engine.
type Membership interface {
	AddHost(eng *sim.SyncEngine, id uint64) int
	RemoveHost(eng *sim.SyncEngine, host int)
	// MigratedLastChange is how many stored elements changed hosts in the
	// most recent change; StoreSizes is what each node's DHT shard holds.
	MigratedLastChange() int
	StoreSizes() []int
}

// skeapBackend adapts *skeap.Heap: Skeap takes 0-based int priorities.
type skeapBackend struct{ *skeap.Heap }

// WrapSkeap adapts a strict Skeap heap to Backend.
func WrapSkeap(h *skeap.Heap) Backend { return skeapBackend{h} }

func (b skeapBackend) InjectInsert(host int, id prio.ElemID, p uint64, payload string) *semantics.Op {
	return b.Heap.InjectInsert(host, id, int(p-1), payload)
}
func (b skeapBackend) Priority(e prio.Element) uint64 { return uint64(e.Prio) + 1 }
func (b skeapBackend) Batches() int                   { return b.Iterations() }
func (b skeapBackend) StartBatch(ctx *sim.Context)    { b.StartIteration(ctx) }

// seapBackend adapts *seap.Heap, whose priorities already match.
type seapBackend struct{ *seap.Heap }

// WrapSeap adapts a strict Seap heap to Backend.
func WrapSeap(h *seap.Heap) Backend { return seapBackend{h} }

func (b seapBackend) Priority(e prio.Element) uint64 { return uint64(e.Prio) }
func (b seapBackend) Batches() int                   { return b.Cycles() }
func (b seapBackend) StartBatch(ctx *sim.Context)    { b.StartCycle(ctx) }

// NewStrict builds the strict heap a protocol name selects — Skeap over p
// priority classes or Seap over the universe [1, bound] — and returns it
// with its priority bound.
func NewStrict(proto string, n, p int, bound, seed uint64) (Backend, uint64, error) {
	switch proto {
	case "skeap":
		return WrapSkeap(skeap.New(skeap.Config{N: n, P: p, Seed: seed})), uint64(p), nil
	case "seap":
		return WrapSeap(seap.New(seap.Config{N: n, PrioBound: bound, Seed: seed})), bound, nil
	}
	return nil, 0, fmt.Errorf("relax: unknown protocol %q (want skeap or seap)", proto)
}

var (
	_ Backend    = (*Heap)(nil)
	_ Membership = skeapBackend{}
	_ Membership = seapBackend{}
)
