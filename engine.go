package dpq

import (
	"fmt"

	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/sim"
)

// EngineKind selects the execution engine that drives a PQ
// (Options.Engine).
type EngineKind int

// Engine kinds.
const (
	// EngineSync is the default: the serial synchronous round engine.
	// Deterministic per seed.
	EngineSync EngineKind = iota
	// EngineAsync delivers each message after a random bounded delay
	// (Options.MaxDelay), modeling an asynchronous network. Deterministic
	// per seed but not round-structured.
	EngineAsync
	// Deprecated: EngineSyncParallel named the worker-pool round engine,
	// which is gone. It is EngineSync.
	EngineSyncParallel = EngineSync
)

func (k EngineKind) String() string {
	switch k {
	case EngineSync:
		return "sync"
	case EngineAsync:
		return "async"
	default:
		return fmt.Sprintf("engine-%d", int(k))
	}
}

// validateEngine checks the engine-selection fields of opts.
func validateEngine(opts Options) error {
	switch opts.Engine {
	case EngineSync, EngineAsync:
	default:
		return fmt.Errorf("dpq: unknown engine kind %d", int(opts.Engine))
	}
	if opts.MaxDelay < 0 {
		return fmt.Errorf("dpq: MaxDelay must be ≥ 0 (got %v)", opts.MaxDelay)
	}
	if opts.MaxDelay != 0 && opts.Engine != EngineAsync {
		return fmt.Errorf("dpq: MaxDelay is only valid with EngineAsync (engine is %v)", opts.Engine)
	}
	return nil
}

// buildEngine translates the (validated) engine options into the heap's
// sim.Spec, builds it, and returns it with the per-Drain budget: a generous
// number of rounds, scaled for the asynchronous engine to events (one round
// is roughly one activation per node).
func buildEngine(be relax.Backend, opts Options) (sim.Engine, int) {
	budget := 20000 * (mathx.Log2Ceil(opts.Nodes) + 3)
	spec := be.Spec(sim.KindSync)
	if opts.Engine == EngineAsync {
		spec.Kind = sim.KindAsync
		if spec.MaxDelay = opts.MaxDelay; spec.MaxDelay == 0 {
			spec.MaxDelay = 2
		}
		budget *= opts.Nodes + 1
	}
	return sim.Build(spec), budget
}

// At returns a builder that issues operations at the given host. It panics
// when host is out of range, like every per-host entry point.
func (pq *PQ) At(host int) Host {
	pq.checkHost(host)
	return Host{pq: pq, host: host}
}

// Host issues operations at one fixed process. Builders are values — keep
// as many as you like, interleave them freely; operations take effect in
// program order at their host when the next Drain runs the network.
type Host struct {
	pq   *PQ
	host int
}

// Insert issues Insert(e) at the host with a 1-based priority (1 = most
// prioritized) and returns the builder for chaining. Use InsertID when the
// assigned element id is needed.
func (h Host) Insert(priority uint64, payload string) Host {
	h.pq.insert(h.host, priority, payload)
	return h
}

// InsertID is Insert returning the assigned element id instead of the
// builder.
func (h Host) InsertID(priority uint64, payload string) prio.ElemID {
	return h.pq.insert(h.host, priority, payload)
}

// DeleteMin issues DeleteMin() at the host and returns the builder for
// chaining; the outcome appears in the next Drain's deliveries.
func (h Host) DeleteMin() Host {
	h.pq.deleteMin(h.host)
	return h
}

// Drain drives the network until every operation issued so far completed,
// then returns the outcomes of the DeleteMins issued since the previous
// Drain, in serialization order. It errors when the batch cannot complete
// within the engine's budget.
//
// The new deliveries are the trace's suffix past the previous Drain, not
// the tail of Results: a relaxed mode's serialization values (BatchLocal's
// Lamport stamps) may sort a new delivery before an old one.
func (pq *PQ) Drain() ([]Delivery, error) {
	if !pq.eng.RunUntil(pq.be.Done, pq.budget) {
		return nil, fmt.Errorf("dpq: %v engine did not complete the batch within its budget", pq.kind)
	}
	ops := pq.be.Trace().Ops()
	out := pq.deliveries(ops[pq.drained:])
	pq.drained = len(ops)
	return out, nil
}

// EngineKind reports which engine drives the PQ.
func (pq *PQ) EngineKind() EngineKind { return pq.kind }
