// Sparse-stepping determinism: the round engine skips passive handlers and
// seals only the inboxes with mail. A dense run of the same network, whose
// handlers hide Passive so every node is activated every round, is the
// reference: for every protocol and several seeds the two must produce a
// byte-identical dpq-trace/1 stream and equal Metrics. The heap scenarios
// include an anchor hand-over, after which the driver must refresh the
// engine's activation set (RefreshActive) for the sparse run to match.
package integration

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// dense hides a handler's Passive method, so the engine activates it every
// round.
type dense struct{ sim.Handler }

// injectBatch buffers opsPerNode seeded operations (60 % inserts over the
// priorities [1, bound]) at every active host of be, numbering elements
// from *id.
func injectBatch(be relax.Backend, n, opsPerNode int, bound uint64, rnd *hashutil.Rand, id *prio.ElemID) {
	for host := 0; host < n; host++ {
		if !be.Overlay().ActiveHost(host) {
			continue
		}
		for i := 0; i < opsPerNode; i++ {
			if rnd.Bool(0.6) {
				be.InjectInsert(host, *id, rnd.Uint64n(bound)+1, "")
				*id++
			} else {
				be.InjectDelete(host)
			}
		}
	}
}

// runTraced drives one protocol scenario to completion on the round
// engine, stepped densely or sparsely, streaming every delivery through a
// dpq-trace/1 writer, and returns the JSONL bytes and metrics. Skeap and
// Seap run a batch, lose the anchor's host, and run a second batch that
// the new anchor starts itself.
func runTraced(t *testing.T, proto string, denseStep bool, seed uint64) ([]byte, sim.Metrics) {
	t.Helper()
	const n = 16
	const opsPerNode = 3
	var (
		be    relax.Backend
		sel   *kselect.Selector
		spec  sim.Spec
		bound uint64
	)
	switch proto {
	case "skeap":
		bound = 4
		be = relax.WrapSkeap(skeap.New(skeap.Config{N: n, P: 4, Seed: seed}))
	case "seap":
		bound = 16 * n * n
		be = relax.WrapSeap(seap.New(seap.Config{N: n, PrioBound: bound, Seed: seed}))
	case "relax-samplek", "relax-batchlocal":
		// Relaxed semantics must not cost engine determinism: probe targets
		// and steal victims come from the per-node deterministic streams.
		bound = 1 << 20
		cfg := relax.Config{N: n, Seed: seed, Mode: relax.SampleK, K: 2, PrioBound: bound}
		if proto == "relax-batchlocal" {
			cfg.Mode, cfg.K, cfg.Batch = relax.BatchLocal, 0, 4
		}
		be = relax.New(cfg)
	case "kselect":
		sel = kselect.New(ldb.New(n, hashutil.New(seed)), hashutil.New(seed+1))
		sel.LoadUniform(4*n, 16*n, seed+2)
		spec = sel.Spec(sim.KindSync, seed+3)
	default:
		t.Fatalf("unknown proto %q", proto)
	}
	rnd := hashutil.NewRand(seed + 1)
	id := prio.ElemID(1)
	membership, handover := be.(relax.Membership)
	if be != nil {
		if handover {
			be.SetAutoRepeat(false)
		}
		injectBatch(be, n, opsPerNode, bound, rnd, &id)
		spec = be.Spec(sim.KindSync)
	}
	if denseStep {
		for i, h := range spec.Handlers {
			spec.Handlers[i] = dense{h}
		}
	}
	eng := sim.Build(spec).(*sim.SyncEngine)

	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	eng.SetObserver(tw.Observer())
	run := func(done func() bool) {
		if !eng.RunUntil(done, maxRounds(n)) {
			t.Fatalf("%s dense=%v seed=%d did not complete", proto, denseStep, seed)
		}
	}
	switch {
	case sel != nil:
		sel.Start(eng.Context(sel.Anchor()), 2*n)
		run(sel.Done)
	case handover:
		be.StartBatch(eng.Context(be.Overlay().Anchor))
		run(be.Done)
		anchor := be.Overlay().Anchor
		membership.RemoveHost(eng, ldb.HostOf(anchor))
		if be.Overlay().Anchor == anchor {
			t.Fatalf("%s seed=%d: the anchor did not move", proto, seed)
		}
		be.SetAutoRepeat(true)
		injectBatch(be, n, opsPerNode, bound, rnd, &id)
		run(be.Done)
	default:
		run(be.Done) // relax nodes self-start on activation
	}
	if err := tw.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	return buf.Bytes(), *eng.Metrics()
}

// firstTraceDiff reports the first JSONL line where two traces diverge,
// for a readable failure message.
func firstTraceDiff(a, b []byte) string {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  sparse: %s\n  dense:  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: sparse %d lines, dense %d lines", len(la), len(lb))
}

// TestSparseMatchesDenseTrace: for every protocol and five seeds, the
// sparse run must produce a byte-identical dpq-trace/1 stream and equal
// Metrics to the dense run.
func TestSparseMatchesDenseTrace(t *testing.T) {
	for _, proto := range []string{"skeap", "seap", "kselect", "relax-samplek", "relax-batchlocal"} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", proto, seed), func(t *testing.T) {
				sparseTrace, sparseMet := runTraced(t, proto, false, seed)
				if len(bytes.TrimSpace(sparseTrace)) == 0 || sparseMet.Messages == 0 {
					t.Fatalf("sparse run produced no trace/messages")
				}
				denseTrace, denseMet := runTraced(t, proto, true, seed)
				if !bytes.Equal(sparseTrace, denseTrace) {
					t.Fatalf("trace diverges: %s", firstTraceDiff(sparseTrace, denseTrace))
				}
				if !reflect.DeepEqual(sparseMet, denseMet) {
					t.Fatalf("metrics diverge:\n  sparse: %+v\n  dense:  %+v", sparseMet, denseMet)
				}
			})
		}
	}
}
