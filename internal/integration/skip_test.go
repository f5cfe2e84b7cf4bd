// Skipped subtrees against the dense reference: a tree instance runs only
// on the children whose subtrees hold its work (aggtree.Proto.Kids and
// NoShare), and a skipped subtree would have contributed the identity. With
// aggtree.Dense every instance runs on every child instead, as the
// protocols did before they skipped. Both runs must select the same
// element, deliver the same results with the same serialization values and
// reach the same oracle verdict; the skipping run must send strictly fewer
// messages in no more rounds.
package integration

import (
	"fmt"
	"reflect"
	"testing"

	"dpq/internal/aggtree"
	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// skipRun is what one run of a scenario is compared by.
type skipRun struct {
	elem    prio.Element   // KSelect: the selected element
	ops     []semantics.Op // heaps: every operation as it completed
	verdict string         // heaps: the oracle's report ("<ok>" if none)
	metrics sim.Metrics
}

// bothWays runs scenario with skipping and then densely, restoring
// aggtree.Dense afterwards.
func bothWays(t *testing.T, scenario func() skipRun) (skip, dense skipRun) {
	t.Helper()
	defer func() { aggtree.Dense = false }()
	aggtree.Dense = false
	skip = scenario()
	aggtree.Dense = true
	dense = scenario()
	return skip, dense
}

// compareSkip fails t unless skip matches dense in everything but its cost,
// sends strictly fewer messages and, where rounds count (sync), takes no
// more of them.
func compareSkip(t *testing.T, name string, skip, dense skipRun, rounds bool) {
	t.Helper()
	if skip.elem != dense.elem {
		t.Errorf("%s: selected %v, the dense run %v", name, skip.elem, dense.elem)
	}
	if !reflect.DeepEqual(skip.ops, dense.ops) {
		t.Errorf("%s: the deliveries differ from the dense run's", name)
	}
	if skip.verdict != dense.verdict {
		t.Errorf("%s: oracle verdict %q, the dense run's %q", name, skip.verdict, dense.verdict)
	}
	if skip.metrics.Messages >= dense.metrics.Messages {
		t.Errorf("%s: %d messages, the dense run %d; want fewer", name, skip.metrics.Messages, dense.metrics.Messages)
	}
	if rounds && skip.metrics.Rounds > dense.metrics.Rounds {
		t.Errorf("%s: %d rounds, the dense run %d; want no more", name, skip.metrics.Rounds, dense.metrics.Rounds)
	}
}

// heapRun injects opsPerNode seeded operations per host into a fresh heap
// of proto, runs batches manual batches to completion on an engine of
// kind, injecting again before each, and returns the trace and verdict.
func heapRun(t *testing.T, proto string, kind sim.EngineKind, n, batches int, seed uint64) skipRun {
	t.Helper()
	const opsPerNode = 3
	var be relax.Backend
	var bound uint64
	switch proto {
	case "skeap":
		bound = 4
		be = relax.WrapSkeap(skeap.New(skeap.Config{N: n, P: 4, Seed: seed}))
	case "seap":
		bound = uint64(16 * n * n)
		be = relax.WrapSeap(seap.New(seap.Config{N: n, PrioBound: bound, Seed: seed}))
	}
	be.SetAutoRepeat(false)
	eng := sim.Build(be.Spec(kind))
	rnd := hashutil.NewRand(seed + 1)
	id := prio.ElemID(1)
	for b := 0; b < batches; b++ {
		injectBatch(be, n, opsPerNode, bound, rnd, &id)
		be.StartBatch(eng.Context(be.Overlay().Anchor))
		if !eng.RunUntil(be.Done, 100*maxRounds(n)) {
			t.Fatalf("%s n=%d seed %d dense=%v: batch %d did not complete", proto, n, seed, aggtree.Dense, b+1)
		}
	}
	r := skipRun{verdict: be.Check().Error(), metrics: *eng.Metrics()}
	for _, op := range be.Trace().Ops() {
		r.ops = append(r.ops, *op)
	}
	return r
}

// TestSkippedSubtreesMatchDense: KSelect at n ∈ {8, 64, 512}, m ∈ {4n, n²}
// and k ∈ {1, m/2, m} (phase 1 runs at m = n² for n ≥ 64); Seap batches on
// the round engine and the lossless asynchronous one; Skeap batches. Seeds
// 1–5 each.
func TestSkippedSubtreesMatchDense(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	for _, n := range []int{8, 64, 512} {
		for _, m := range []int{4 * n, n * n} {
			for _, k := range []int64{1, int64(m / 2), int64(m)} {
				for _, seed := range seeds {
					name := fmt.Sprintf("kselect n=%d m=%d k=%d seed %d", n, m, k, seed)
					skip, dense := bothWays(t, func() skipRun {
						sel := kselect.New(ldb.New(n, hashutil.New(seed)), hashutil.New(seed+1))
						sel.LoadUniform(m, uint64(4*m), seed+2)
						eng := sel.NewSyncEngine(seed + 3)
						sel.Start(eng.Context(sel.Anchor()), k)
						if !eng.RunUntil(sel.Done, maxRounds(n)) {
							t.Fatalf("%s dense=%v: selection did not finish", name, aggtree.Dense)
						}
						return skipRun{elem: sel.Result().Elem, metrics: *eng.Metrics()}
					})
					compareSkip(t, name, skip, dense, true)
				}
			}
		}
	}
	for _, c := range []struct {
		proto, engine string
		kind          sim.EngineKind
	}{{"seap", "sync", sim.KindSync}, {"seap", "async", sim.KindAsync}, {"skeap", "sync", sim.KindSync}} {
		for _, n := range []int{8, 64} {
			for _, seed := range seeds {
				name := fmt.Sprintf("%s %s n=%d seed %d", c.proto, c.engine, n, seed)
				skip, dense := bothWays(t, func() skipRun { return heapRun(t, c.proto, c.kind, n, 2, seed) })
				if skip.verdict != "<ok>" {
					t.Errorf("%s: semantics violated:\n%s", name, skip.verdict)
				}
				compareSkip(t, name, skip, dense, c.kind == sim.KindSync)
			}
		}
	}
}
