package skeap

import (
	"testing"

	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// TestFaultyAsyncSequentiallyConsistent: with 20% drops, duplicates, delay
// spikes and node crashes, the reliable transport must restore the §1.1
// channel — every operation completes and the full semantics battery holds.
func TestFaultyAsyncSequentiallyConsistent(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		h := New(Config{N: 5, P: 3, Seed: 400 + seed})
		randomWorkload(h, 500+seed, 30)
		plan := sim.NewFaultPlan(sim.FaultProfile{
			Seed:      600 + seed,
			DropRate:  0.20,
			DupRate:   0.10,
			DelayRate: 0.05,
			CrashRate: 0.002,
		})
		eng, transports := sim.BuildFaulty(h.Spec(sim.KindAsync), 3.0, plan)
		if !eng.RunUntil(h.Done, 8_000_000) {
			t.Fatalf("seed %d: faulty run incomplete (%d/%d; faults %v)",
				seed, h.trace.DoneCount(), h.trace.Len(), plan)
		}
		if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
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
