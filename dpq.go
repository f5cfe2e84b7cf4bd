// Package dpq provides scalable distributed priority queues — a
// reproduction of "Skeap & Seap: Scalable Distributed Priority Queues for
// Constant and Arbitrary Priorities" (Feldmann & Scheideler, SPAA 2019).
//
// Two protocols are provided behind one API:
//
//   - Skeap — for a constant number of priorities; sequentially
//     consistent; O(Λ log² n)-bit messages (Theorem 3.2).
//   - Seap — for arbitrary poly(n)-sized priority universes; serializable;
//     O(log n)-bit messages independent of the injection rate
//     (Theorem 5.1), built on the KSelect distributed k-selection
//     protocol (Theorem 4.2).
//
// Both run the paper's protocols faithfully on a simulated asynchronous
// message-passing network (the linearized de Bruijn overlay of Appendix A
// with its embedded aggregation tree and DHT). See the examples/ directory
// for runnable programs and DESIGN.md for the system inventory.
//
// Quickstart — operations are issued through per-host builders and a
// batch runs when Drain is called:
//
//	pq, _ := dpq.New(dpq.Seap, dpq.Options{Nodes: 16, Seed: 1})
//	pq.At(0).Insert(42, "job-a")
//	pq.At(3).Insert(7, "job-b")
//	pq.At(9).DeleteMin()
//	deliveries, _ := pq.Drain()
//	for _, d := range deliveries {
//		fmt.Println(d.Payload) // "job-b" — the most prioritized element
//	}
//
// Options.Engine selects how the simulated network executes each batch —
// the paper's two execution models (§1.1): synchronous rounds (EngineSync,
// the default) and bounded-delay asynchrony (EngineAsync).
// Real concurrency is cmd/dpqd's job: the same handlers on TCP.
package dpq

import (
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/relax"
)

// Relaxation configures relaxed DeleteMin semantics (Options.Relaxation):
// the zero value keeps the exact protocols; RelaxSampleK and
// RelaxBatchLocal trade bounded rank error for coordination-free
// throughput, quantified by PQ.RankError.
type Relaxation = relax.Options

// RelaxMode selects the relaxation discipline (Relaxation.Mode).
type RelaxMode = relax.Mode

// Relaxation modes.
const (
	// RelaxNone keeps strict semantics (the default).
	RelaxNone = relax.Strict
	// RelaxSampleK serves each DeleteMin with the best of k sampled
	// per-host minima (expected rank error O(n/k)).
	RelaxSampleK = relax.SampleK
	// RelaxBatchLocal serves DeleteMins from a host-local prefetch buffer
	// refilled in batches (rank error grows with the buffer depth).
	RelaxBatchLocal = relax.BatchLocal
)

// RankStats is the rank-error histogram of an execution (PQ.RankError).
type RankStats = obs.RankStats

// Element is a heap element (id, priority, payload).
type Element = prio.Element

// ElemID uniquely identifies an element.
type ElemID = prio.ElemID
