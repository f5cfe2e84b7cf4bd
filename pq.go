package dpq

import (
	"errors"
	"fmt"
	"sort"

	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// Protocol selects the heap implementation.
type Protocol int

// Protocols.
const (
	// Skeap supports a constant number of priorities and guarantees
	// sequential consistency (Theorem 3.2).
	Skeap Protocol = iota
	// Seap supports arbitrary (poly(n)-sized) priority universes and
	// guarantees serializability with O(log n)-bit messages (Theorem 5.1).
	Seap
)

func (p Protocol) String() string {
	if p == Skeap {
		return "Skeap"
	}
	return "Seap"
}

// Options configures a PQ.
type Options struct {
	// Nodes is the number of participating processes (n ≥ 1).
	Nodes int
	// Priorities is |𝒫|. For Skeap it must be a small constant; for Seap
	// any poly(n) value works. Defaults: 4 (Skeap), n² (Seap).
	Priorities uint64
	// Seed makes the simulation reproducible.
	Seed uint64
	// MaxHeap inverts the delete preference: DeleteMin becomes DeleteMax
	// (Skeap only; §1.2's inversion).
	MaxHeap bool
	// SeqConsistent selects the §6 Seap variant: sequential consistency
	// at the cost of throughput (Seap only).
	SeqConsistent bool
	// Engine selects the execution engine (default EngineSync). See the
	// EngineKind constants for the trade-offs.
	Engine EngineKind
	// Deprecated: Workers sized the worker-pool round engine, which is
	// gone; every synchronous PQ steps serially. Validation ignores it.
	Workers int
	// MaxDelay is EngineAsync's maximum message delay in simulated time
	// units (0 = the default of 2). Setting it with any other engine is an
	// error.
	MaxDelay float64
	// Relaxation trades strict DeleteMin semantics for coordination-free
	// throughput (internal/relax). The zero value keeps the exact
	// protocols; any relaxed mode weakens Verify to relaxed validity and
	// makes the rank error measurable via RankError. Incompatible with
	// MaxHeap and SeqConsistent.
	Relaxation relax.Options
}

// Delivery is the outcome of one DeleteMin.
type Delivery struct {
	Host     int    // process that issued the DeleteMin
	Found    bool   // false: the heap was empty (⊥)
	Priority uint64 // priority of the returned element
	ID       prio.ElemID
	Payload  string
}

// PQ is a distributed priority queue running on a simulated network: one
// protocol Backend on one sim.Engine. Operations are issued at named
// processes ("hosts") through At, Drain runs the network until every
// issued operation completed and returns what each DeleteMin got, and
// Verify replays the execution against the paper's correctness
// definitions (sequential consistency + heap consistency for Skeap,
// serializability + heap consistency for Seap).
type PQ struct {
	proto   Protocol
	be      relax.Backend
	relaxed bool
	kind    EngineKind
	eng     sim.Engine
	budget  int // per-Drain budget, in the engine's unit (see sim.Engine)
	nodes   int
	nextID  uint64
	drained int // trace length at the previous Drain; Drain returned every op before it
}

// New creates a distributed priority queue.
func New(proto Protocol, opts Options) (*PQ, error) {
	if opts.Nodes < 1 {
		return nil, errors.New("dpq: at least one node required")
	}
	if opts.SeqConsistent && proto != Seap {
		return nil, errors.New("dpq: SeqConsistent mode is Seap-only")
	}
	if err := validateEngine(opts); err != nil {
		return nil, err
	}
	if err := opts.Relaxation.Validate(); err != nil {
		return nil, fmt.Errorf("dpq: %w", err)
	}
	if opts.Relaxation.Enabled() {
		if opts.MaxHeap {
			return nil, errors.New("dpq: Relaxation is incompatible with MaxHeap")
		}
		if opts.SeqConsistent {
			return nil, errors.New("dpq: Relaxation is incompatible with SeqConsistent (a relaxed heap is not even serializable)")
		}
	}
	var bound uint64
	switch proto {
	case Skeap:
		if bound = opts.Priorities; bound == 0 {
			bound = 4
		}
		if bound > 64 {
			return nil, fmt.Errorf("dpq: Skeap needs a constant priority universe (got %d; use Seap)", bound)
		}
	case Seap:
		if opts.MaxHeap {
			return nil, errors.New("dpq: MaxHeap mode is Skeap-only")
		}
		if bound = opts.Priorities; bound == 0 {
			bound = 1 << 30 // "arbitrary" priorities: a generous poly(n) default
		}
	default:
		return nil, fmt.Errorf("dpq: unknown protocol %d", proto)
	}
	pq := &PQ{proto: proto, nodes: opts.Nodes, relaxed: opts.Relaxation.Enabled(), kind: opts.Engine}
	switch {
	case pq.relaxed:
		pq.be = relax.New(relax.Config{N: opts.Nodes, Seed: opts.Seed,
			Mode: opts.Relaxation.Mode, K: opts.Relaxation.K, Batch: opts.Relaxation.Batch,
			PrioBound: bound})
	case proto == Skeap:
		pq.be = relax.WrapSkeap(skeap.New(skeap.Config{N: opts.Nodes, P: int(bound), Seed: opts.Seed, MaxHeap: opts.MaxHeap}))
	default:
		pq.be = relax.WrapSeap(seap.New(seap.Config{N: opts.Nodes, PrioBound: bound, Seed: opts.Seed, SeqConsistent: opts.SeqConsistent}))
	}
	pq.eng, pq.budget = buildEngine(pq.be, opts)
	return pq, nil
}

// Protocol returns the protocol the PQ runs.
func (pq *PQ) Protocol() Protocol { return pq.proto }

// Nodes returns the number of processes.
func (pq *PQ) Nodes() int { return pq.nodes }

// insert issues Insert(e) at host and returns the element's unique id.
func (pq *PQ) insert(host int, priority uint64, payload string) prio.ElemID {
	pq.checkHost(host)
	pq.nextID++
	id := prio.ElemID(pq.nextID)
	pq.be.InjectInsert(host, id, priority, payload)
	return id
}

// deleteMin issues DeleteMin() at host.
func (pq *PQ) deleteMin(host int) {
	pq.checkHost(host)
	pq.be.InjectDelete(host)
}

func (pq *PQ) checkHost(host int) {
	if host < 0 || host >= pq.nodes {
		panic(fmt.Sprintf("dpq: host %d out of range [0,%d)", host, pq.nodes))
	}
}

// Results returns the outcome of every completed DeleteMin since the PQ
// was created, in serialization order. Drain is usually more convenient:
// it runs the network and returns only the new deliveries.
func (pq *PQ) Results() []Delivery { return pq.deliveries(pq.be.Trace().Ops()) }

// deliveries returns the outcomes of the completed DeleteMins among ops,
// in serialization order; it sorts ops in place.
func (pq *PQ) deliveries(ops []*semantics.Op) []Delivery {
	sort.Slice(ops, func(i, j int) bool { return ops[i].Value < ops[j].Value })
	var out []Delivery
	for _, op := range ops {
		if op.Kind != semantics.DeleteMin || !op.Done {
			continue
		}
		d := Delivery{Host: op.Node, Found: !op.Result.Nil()}
		if d.Found {
			d.ID = op.Result.ID
			d.Payload = op.Result.Payload
			d.Priority = pq.be.Priority(op.Result)
		}
		out = append(out, d)
	}
	return out
}

// Verify replays the recorded execution against the paper's correctness
// definitions and returns an error describing the first violations, if
// any. Skeap is checked for sequential consistency + heap consistency
// (Definition 1.1 + 1.2), Seap for serializability + heap consistency. A
// relaxed PQ is checked for relaxed validity only — ordering strictness is
// quantified by RankError, not judged here.
func (pq *PQ) Verify() error {
	if rep := pq.be.Check(); !rep.Ok() {
		return errors.New(rep.Error())
	}
	return nil
}

// Metrics returns the accumulated network cost of the run.
func (pq *PQ) Metrics() sim.Metrics { return *pq.eng.Metrics() }

// Trace exposes the raw execution trace for custom analysis.
func (pq *PQ) Trace() *semantics.Trace { return pq.be.Trace() }

// Relaxed reports whether the PQ runs a relaxed DeleteMin discipline.
func (pq *PQ) Relaxed() bool { return pq.relaxed }

// RankError replays the execution trace against the sequential oracle and
// returns the rank-error histogram of its DeleteMins: how far each
// delivered element ranked from the true minimum of the live set. Strict
// PQs report all zeros — the observer doubles as a strictness proof.
func (pq *PQ) RankError() obs.RankStats { return obs.TraceRankError(pq.be.Trace()) }

// Engine exposes the synchronous engine driving the PQ (nil unless the
// engine kind is EngineSync).
func (pq *PQ) Engine() *sim.SyncEngine {
	e, _ := pq.eng.(*sim.SyncEngine)
	return e
}

// SelectResult is the outcome of a KSelect run, including the protocol
// diagnostics the experiments report.
type SelectResult = kselect.Result

// Select runs the standalone KSelect protocol: it distributes elems
// uniformly over a fresh n-process overlay and returns the element of rank
// k (1-based) in the total order (priority, then id), plus the protocol
// diagnostics.
func Select(n int, elems []prio.Element, k int64, seed uint64) (kselect.Result, error) {
	if n < 1 {
		return kselect.Result{}, errors.New("dpq: at least one node required")
	}
	if k < 1 || k > int64(len(elems)) {
		return kselect.Result{}, fmt.Errorf("dpq: rank %d out of range [1,%d]", k, len(elems))
	}
	ov := ldb.New(n, hashutil.New(seed))
	sel := kselect.New(ov, hashutil.New(seed+1))
	rnd := hashutil.NewRand(seed + 2)
	for _, e := range elems {
		sel.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())), e)
	}
	eng := sel.NewSyncEngine(seed + 3)
	sel.Start(eng.Context(sel.Anchor()), k)
	if !eng.RunUntil(sel.Done, 20000*(mathx.Log2Ceil(n)+3)) {
		return kselect.Result{}, errors.New("dpq: selection did not terminate")
	}
	return sel.Result(), nil
}
