package sim

import "testing"

// Tests for dynamic membership (AddHandler) and metric grouping details.

func TestAddHandlerExtendsNetwork(t *testing.T) {
	hs := newPingPair()
	eng := newSync(hs, 1, 0, nil)
	eng.Context(0).Send(1, &ping{TTL: 0})
	eng.Step()

	third := &pingNode{}
	id := eng.AddHandler(third, 2)
	if id != 2 {
		t.Fatalf("new node id %d, want 2", id)
	}
	eng.Context(0).Send(id, &ping{TTL: 1})
	for i := 0; i < 5; i++ {
		eng.Step()
	}
	if third.received != 1 {
		t.Fatalf("new node received %d messages", third.received)
	}
	// The echo (TTL 1 → reply) reaches node 0 as well.
	if hs[0].(*pingNode).received != 1 {
		t.Fatalf("origin received %d", hs[0].(*pingNode).received)
	}
}

func TestAddHandlerGrowsMetrics(t *testing.T) {
	hs := newPingPair()
	eng := newSync(hs, 1, 0, nil)
	id := eng.AddHandler(&pingNode{}, 3)
	eng.Context(0).Send(id, &ping{TTL: 0})
	eng.Step()
	m := eng.Metrics()
	if len(m.Deliveries) < 3 || m.Deliveries[int(id)] != 1 {
		t.Fatalf("deliveries not tracked for the new node: %v", m.Deliveries)
	}
}

func TestAddHandlerCustomGrouping(t *testing.T) {
	// Group function maps new ids beyond the initial group count; nGrp
	// must grow.
	hs := []Handler{&pingNode{}}
	eng := newSync(hs, 1, 1, func(id NodeID) int { return int(id) })
	id := eng.AddHandler(&pingNode{}, 4)
	eng.Context(0).Send(id, &ping{TTL: 0})
	eng.Step()
	if eng.Metrics().Congestion != 1 {
		t.Fatalf("congestion %d", eng.Metrics().Congestion)
	}
}

func TestMetricsString(t *testing.T) {
	m := &Metrics{Rounds: 3, Messages: 5, Congestion: 2, MaxMessageBit: 9, TotalBits: 45}
	s := m.String()
	for _, want := range []string{"rounds=3", "msgs=5", "congestion=2", "maxMsgBits=9", "totalBits=45"} {
		if !contains(s, want) {
			t.Fatalf("metrics string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestAsyncActivationKeepsFiring(t *testing.T) {
	// A node that only produces work on activation must still make
	// progress in the async engine.
	n := &activationCounter{}
	eng := newAsync([]Handler{n}, 5, 1.0, 0, nil)
	eng.RunUntil(func() bool { return n.count >= 10 }, 100000)
	if n.count < 10 {
		t.Fatalf("activations: %d", n.count)
	}
}

type activationCounter struct{ count int }

func (a *activationCounter) HandleMessage(*Context, NodeID, Message) {}
func (a *activationCounter) Activate(*Context)                       { a.count++ }

func TestContextIdentity(t *testing.T) {
	hs := newPingPair()
	eng := newSync(hs, 1, 0, nil)
	if eng.Context(0).ID() != 0 || eng.Context(1).ID() != 1 {
		t.Fatal("context ids wrong")
	}
	if eng.Context(0).Rand() == nil {
		t.Fatal("context PRNG missing")
	}
}

func TestObserverSeesDeliveries(t *testing.T) {
	hs := newPingPair()
	eng := newSync(hs, 1, 0, nil)
	var seen []NodeID
	eng.SetObserver(func(d Delivery) {
		seen = append(seen, d.To)
	})
	eng.Context(0).Send(1, &ping{TTL: 2})
	for i := 0; i < 5; i++ {
		eng.Step()
	}
	if len(seen) != 3 {
		t.Fatalf("observer saw %d deliveries, want 3", len(seen))
	}
	want := []NodeID{1, 0, 1}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("delivery order %v", seen)
		}
	}
}
