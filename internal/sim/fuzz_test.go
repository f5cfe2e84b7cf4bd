package sim

import (
	"testing"
)

// FuzzReliableTransport: an arbitrary fault schedule — drop/dup/delay
// rates and crash behaviour all derived from the fuzz input — must never
// make the reliable transport deliver a payload zero or multiple times.
// Rates are capped below the point where liveness within the event budget
// is in question (the transport retries forever, so any drop rate < 1
// eventually delivers; the cap keeps "eventually" inside the budget).
func FuzzReliableTransport(f *testing.F) {
	f.Add(uint64(1), byte(0), byte(0), byte(0), byte(0))
	f.Add(uint64(7), byte(128), byte(64), byte(32), byte(4))
	f.Add(uint64(42), byte(255), byte(255), byte(255), byte(255))
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, delay, crash byte) {
		profile := FaultProfile{
			Seed:        seed,
			DropRate:    float64(drop) / 255 * 0.5,  // ≤ 50% drop
			DupRate:     float64(dup) / 255 * 0.3,   // ≤ 30% dup
			DelayRate:   float64(delay) / 255 * 0.2, // ≤ 20% delay spikes
			CrashRate:   float64(crash) / 255 * 0.01,
			CrashLength: 15,
		}
		const nodes, count = 3, 6
		inner := make([]*floodNode, nodes)
		hs := make([]Handler, nodes)
		for i := range inner {
			inner[i] = newFloodNode(NodeID((i+1)%nodes), count, i*count)
			hs[i] = inner[i]
		}
		wrapped, transports := WrapAllReliable(hs, TransportConfig{})
		eng := newAsync(wrapped, seed^0x5eed, 3.0, 0, nil)
		eng.SetFaultPlan(NewFaultPlan(profile))
		done := func() bool {
			for _, n := range inner {
				if len(n.got) != count {
					return false
				}
			}
			return true
		}
		completed := eng.RunUntil(done, 3_000_000)

		// Safety: never more than one delivery per payload, and only
		// payloads that were actually sent (node i sends i*count+j to its
		// ring successor), regardless of whether the run completed.
		for i, n := range inner {
			sender := (i + nodes - 1) % nodes
			for id, cnt := range n.got {
				if cnt != 1 {
					t.Fatalf("node %d: payload %d delivered %d times (profile %+v)", i, id, cnt, profile)
				}
				if id < sender*count || id >= sender*count+count {
					t.Fatalf("node %d: delivered payload %d never sent to it", i, id)
				}
			}
		}
		// Liveness: with capped rates the budget is generous, so every
		// payload must make it through every schedule the fuzzer finds.
		if !completed {
			for i, n := range inner {
				t.Logf("node %d: got %d/%d, outstanding %d", i, len(n.got), count, transports[i].Outstanding())
			}
			t.Fatalf("flood incomplete within budget (faults %v, profile %+v)", eng.Faults(), profile)
		}
	})
}
