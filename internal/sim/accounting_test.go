package sim

import "testing"

// Regression tests for the metrics-accounting fixes: deliveries to
// out-of-range congestion groups must never vanish silently, AddHandler
// must grow Deliveries on every engine, and crash-suppressed deliveries
// are counted in LostToCrash.

// badGroup maps every node past the declared group count.
func badGroup(id NodeID) int { return int(id) + 100 }

func TestSyncStrictPanicsOnOutOfRangeGroup(t *testing.T) {
	hs := newPingPair()
	eng := newSync(hs, 1, 1, badGroup) // groups=1, group() ≥ 100
	eng.Context(0).Send(1, &ping{TTL: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range group delivery did not panic under strict accounting")
		}
	}()
	eng.Step()
}

func TestSyncDroppedCountedWhenNotStrict(t *testing.T) {
	hs := newPingPair()
	eng := newSync(hs, 1, 1, badGroup)
	eng.SetStrictAccounting(false)
	eng.Context(0).Send(1, &ping{TTL: 1})
	for i := 0; i < 5; i++ {
		eng.Step()
	}
	m := eng.Metrics()
	if m.Dropped != 2 {
		t.Fatalf("Dropped=%d, want 2", m.Dropped)
	}
	if m.Messages != 2 {
		t.Fatalf("Messages=%d, want 2 (drops still count as deliveries)", m.Messages)
	}
}

// syncAddHandlerScenario grows a running synchronous ping pair by a third
// node, sends traffic to and from it, and returns what the new node
// received and the engine's metrics. A nil group uses the identity
// grouping.
func syncAddHandlerScenario(groups int, group func(NodeID) int) (int, *Metrics) {
	eng := newSync(newPingPair(), 3, groups, group)
	eng.Context(0).Send(1, &ping{TTL: 1})
	eng.Step()
	third := &pingNode{}
	id := eng.AddHandler(third, 4)
	eng.Context(0).Send(id, &ping{TTL: 2})
	eng.Context(id).Send(1, &ping{TTL: 0})
	for r := 0; r < 4; r++ {
		eng.Step()
	}
	return third.received, eng.Metrics()
}

// TestSyncAddHandlerGrowsDeliveries: a node that joins a running
// synchronous engine receives traffic, and the identity grouping of
// Deliveries grows to count it.
func TestSyncAddHandlerGrowsDeliveries(t *testing.T) {
	received, m := syncAddHandlerScenario(0, nil)
	if received != 2 {
		t.Fatalf("the new node received %d messages, want 2", received)
	}
	if len(m.Deliveries) != 3 || m.Deliveries[2] != 2 || m.Messages != 6 {
		t.Fatalf("deliveries %v of %d messages, want 3 groups, 2 to the new node, 6 in all", m.Deliveries, m.Messages)
	}
}

// TestSyncAddHandlerGrowsGroups: same, with a group function whose range
// grows past the declared group count; Deliveries follows it.
func TestSyncAddHandlerGrowsGroups(t *testing.T) {
	received, m := syncAddHandlerScenario(2, func(id NodeID) int { return int(id) })
	if received != 2 {
		t.Fatalf("the new node received %d messages, want 2", received)
	}
	if len(m.Deliveries) != 3 || m.Deliveries[2] != 2 || m.Messages != 6 {
		t.Fatalf("deliveries %v of %d messages, want 3 groups, 2 to the new node, 6 in all", m.Deliveries, m.Messages)
	}
}

func TestAsyncAddHandlerGrowsDeliveries(t *testing.T) {
	hs := newPingPair()
	eng := newAsync(hs, 1, 1.0, 0, nil)
	id := eng.AddHandler(&pingNode{}, 3)
	eng.Context(0).Send(id, &ping{TTL: 0})
	eng.RunUntil(func() bool { return eng.Metrics().Messages >= 1 }, 10000)
	m := eng.Metrics()
	if len(m.Deliveries) < 3 || m.Deliveries[int(id)] != 1 {
		t.Fatalf("deliveries not tracked for the new async node: %v", m.Deliveries)
	}
}

func TestAsyncAddHandlerCustomGrouping(t *testing.T) {
	hs := []Handler{&pingNode{}}
	eng := newAsync(hs, 1, 1.0, 1, func(id NodeID) int { return int(id) })
	id := eng.AddHandler(&pingNode{}, 4)
	eng.Context(0).Send(id, &ping{TTL: 0})
	eng.RunUntil(func() bool { return eng.Metrics().Messages >= 1 }, 10000)
	m := eng.Metrics()
	if len(m.Deliveries) < 2 || m.Deliveries[int(id)] != 1 {
		t.Fatalf("async AddHandler did not grow the group metrics: %v", m.Deliveries)
	}
}

func TestAsyncLostToCrashCounted(t *testing.T) {
	// A certain-crash profile suppresses deliveries to down nodes; those
	// must be counted, not silently skipped.
	hs := newPingPair()
	eng := newAsync(hs, 1, 1.0, 0, nil)
	eng.SetFaultPlan(NewFaultPlan(FaultProfile{CrashRate: 1.0, CrashLength: 1e9, Seed: 1}))
	eng.Context(0).Send(1, &ping{TTL: 3})
	eng.RunUntil(func() bool { return false }, 5000)
	m := eng.Metrics()
	if m.LostToCrash == 0 {
		t.Fatalf("no crash-suppressed delivery counted: %+v", *m)
	}
}

// TestFaultDupReplaySameDeliverySequence locks the duplicate-send seq
// audit: a recorded dup-heavy schedule, replayed, must produce the exact
// same delivery sequence (the duplicate copy draws its seq and delay from
// the engine identically in seeded and replay mode).
func TestFaultDupReplaySameDeliverySequence(t *testing.T) {
	type evt struct {
		from, to NodeID
		time     float64
	}
	run := func(plan *FaultPlan) []evt {
		hs := newPingPair()
		eng := newAsync(hs, 42, 2.0, 0, nil)
		eng.SetFaultPlan(plan)
		var seen []evt
		eng.SetObserver(func(d Delivery) {
			seen = append(seen, evt{d.From, d.To, d.Time})
		})
		eng.Context(0).Send(1, &ping{TTL: 40})
		eng.RunUntil(func() bool { return false }, 3000)
		return seen
	}
	seeded := NewFaultPlan(FaultProfile{DupRate: 0.5, DelayRate: 0.3, Seed: 9})
	a := run(seeded)
	b := run(ReplayFaultPlan(seeded.Trace()))
	if len(a) == 0 {
		t.Fatal("no deliveries observed")
	}
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
