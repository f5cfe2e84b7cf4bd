package seap

import (
	"testing"

	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// TestFaultyAsyncSerializable: Seap's multi-phase cycles (counts, KSelect,
// DHT extraction) must survive 20% drops, duplicates and crash windows
// behind the reliable transport, and stay serializable + heap consistent.
func TestFaultyAsyncSerializable(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		h := New(Config{N: 4, PrioBound: 500, Seed: 700 + seed})
		randomWorkload(h, 800+seed, 24)
		plan := sim.NewFaultPlan(sim.FaultProfile{
			Seed:      900 + seed,
			DropRate:  0.20,
			DupRate:   0.10,
			DelayRate: 0.05,
			CrashRate: 0.002,
		})
		eng, transports := sim.BuildFaulty(h.Spec(sim.KindAsync), 3.0, plan)
		if !eng.RunUntil(h.Done, 12_000_000) {
			t.Fatalf("seed %d: faulty run incomplete (%d/%d; faults %v)",
				seed, h.trace.DoneCount(), h.trace.Len(), plan)
		}
		if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
			t.Fatalf("seed %d: semantics violated under faults:\n%s", seed, rep.Error())
		}
		drops, _, _, _ := plan.Counts()
		if drops == 0 {
			t.Fatalf("seed %d: no drops injected at rate 0.2", seed)
		}
		if sim.SumTransportStats(transports).Retries == 0 {
			t.Fatalf("seed %d: drops injected but nothing retransmitted", seed)
		}
	}
}
