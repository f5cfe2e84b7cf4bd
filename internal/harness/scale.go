package harness

import (
	"time"

	"dpq/internal/sim"
	"dpq/internal/sweep"
)

// scaleOps is E29's bounded workload: a fixed operation count independent
// of n, so the run measures the engine's per-node scaling (construction,
// activation sweeps, arena recycling) rather than workload volume. 4096
// operations keep the largest configuration's DHT phase bounded while
// still exercising every protocol phase.
const scaleOps = 4096

// scaleHeapBudget is the per-virtual-node process-heap budget (bytes) the
// million-host run is judged against — the same 1 KiB bound the
// integration scale test enforces at 262144 hosts. ~570 B/vnode measured
// idle, ~620 after a batch; the budget leaves headroom without letting
// per-node regressions hide. At 3·2^20 vnodes it implies the whole
// simulation fits in ~3 GiB, well inside the CI job's 8 GiB GOMEMLIMIT.
const scaleHeapBudget = 1024.0

// MillionScale: E29 — the struct-of-arrays engine at up to 2^20 hosts
// (3·2^20 virtual nodes). One Skeap batch of scaleOps operations runs to
// completion on the round engine at each host count. The verdict
// judges congestion against the fitted twin envelope (Lemma 3.7's Õ(Λ)
// shape) and the per-node footprint against scaleHeapBudget. Rounds are
// reported as context only: a one-shot batch including its full DHT drain
// is a different regime from the steady rounds-per-batch the twin's round
// constants were fitted on (see E1's note — the drain tail grows faster
// than L even on the seed implementation).
func MillionScale(sz Sizes) Table {
	t := Table{
		ID:    "E29",
		Title: "million-node scale: SoA engine at n up to 2^20 hosts",
		Claim: "Õ(Λ) congestion persists at million-host scale (Lemma 3.7); per-node footprint stays O(1) bytes",
		Header: []string{"n", "vnodes", "rounds", "congestion", "twin ≤",
			"engine B/node", "heap B/node", "wall", "verdict"},
	}
	tw := sweep.DefaultTwin()
	for _, n := range sz.ScaleSweep {
		seed := uint64(29_000 + n%97)
		be, bound := mustStrict("skeap", n, 8, 0, seed)
		be.SetAutoRepeat(false)
		injectRandom(be, n, bound, scaleOps, seed+1)
		eng := sim.Build(be.Spec(sim.KindSync)).(*sim.SyncEngine)
		start := time.Now()
		be.StartBatch(eng.Context(be.Overlay().Anchor))
		completed := eng.RunUntil(be.Done, maxRounds(n))
		wall := time.Since(start)
		m := eng.Metrics()
		ms := eng.MemStats(true)

		env := tw.Predict(sweep.Cell{Proto: sweep.ProtoSkeap, N: n, Rate: 1})
		verdict := sweep.VerdictPass
		switch {
		case !completed:
			verdict = "INCOMPLETE"
		case float64(m.Congestion) > env.Congestion:
			verdict = sweep.VerdictDiverged
		case ms.HeapBytesPerNode() > scaleHeapBudget:
			verdict = sweep.VerdictDiverged
		}
		t.AddRow(n, ms.Nodes, m.Rounds, m.Congestion, env.Congestion,
			ms.EngineBytesPerNode(), ms.HeapBytesPerNode(), wall.Round(time.Millisecond).String(), verdict)
	}
	maxN := sz.ScaleSweep[len(sz.ScaleSweep)-1]
	t.Notef("fixed workload of %d operations per cell; verdict = congestion ≤ %.0f·Λ·L+%.0f (Λ=1, L=log₂n) AND heap ≤ %.0f B/vnode. At n=%d the whole simulation must fit the CI job's 8 GiB GOMEMLIMIT.",
		scaleOps,
		tw.Coeffs[sweep.ProtoSkeap].CongA, tw.Coeffs[sweep.ProtoSkeap].CongB,
		scaleHeapBudget, maxN)
	return t
}
