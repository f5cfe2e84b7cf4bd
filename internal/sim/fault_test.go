package sim

import (
	"bytes"
	"fmt"
	"testing"
)

// flood sends a fixed set of numbered payloads between nodes and records
// every delivery, the workhorse of the transport tests.
type floodMsg struct{ N int }

func (m *floodMsg) Bits() int { return 32 }

type floodNode struct {
	sendTo  NodeID
	pending []int       // payload ids still to send, one per activation
	got     map[int]int // payload id → delivery count
}

func newFloodNode(to NodeID, count, base int) *floodNode {
	n := &floodNode{sendTo: to, got: map[int]int{}}
	for i := 0; i < count; i++ {
		n.pending = append(n.pending, base+i)
	}
	return n
}

func (n *floodNode) HandleMessage(ctx *Context, from NodeID, msg Message) {
	n.got[msg.(*floodMsg).N]++
}

func (n *floodNode) Activate(ctx *Context) {
	if len(n.pending) > 0 {
		ctx.Send(n.sendTo, &floodMsg{N: n.pending[0]})
		n.pending = n.pending[1:]
	}
}

// runFaultyFlood wires count payloads per node through wrapped handlers on
// a faulty engine and returns the nodes and transports after the run.
func runFaultyFlood(t *testing.T, profile FaultProfile, nodes, count, budget int) ([]*floodNode, []*ReliableTransport, *AsyncEngine) {
	t.Helper()
	inner := make([]*floodNode, nodes)
	hs := make([]Handler, nodes)
	for i := range inner {
		inner[i] = newFloodNode(NodeID((i+1)%nodes), count, i*count)
		hs[i] = inner[i]
	}
	wrapped, transports := WrapAllReliable(hs, TransportConfig{})
	eng := newAsync(wrapped, 42, 3.0, 0, nil)
	eng.SetFaultPlan(NewFaultPlan(profile))
	done := func() bool {
		for _, n := range inner {
			if len(n.got) != count {
				return false
			}
		}
		for _, tr := range transports {
			if tr.Outstanding() > 0 {
				return false
			}
		}
		return true
	}
	if !eng.RunUntil(done, budget) {
		for i, n := range inner {
			t.Logf("node %d: got %d/%d, outstanding %d", i, len(n.got), count, transports[i].Outstanding())
		}
		t.Fatalf("faulty flood did not complete within %d events (%v)", budget, eng.Faults())
	}
	return inner, transports, eng
}

// TestTransportExactlyOnceUnderDrops: 20% drops + 10% dups + delay spikes
// + crashes must not lose or duplicate a single payload end to end.
func TestTransportExactlyOnceUnderDrops(t *testing.T) {
	profile := FaultProfile{Seed: 1, DropRate: 0.20, DupRate: 0.10, DelayRate: 0.05, CrashRate: 0.01}
	inner, transports, _ := runFaultyFlood(t, profile, 3, 25, 2_000_000)
	for i, n := range inner {
		for id, cnt := range n.got {
			if cnt != 1 {
				t.Fatalf("node %d: payload %d delivered %d times", i, id, cnt)
			}
		}
	}
	stats := SumTransportStats(transports)
	if stats.Retries == 0 {
		t.Fatal("a high-drop run must retransmit at least once")
	}
	if stats.Duplicates == 0 {
		t.Fatal("a dup-injecting run must suppress at least one duplicate")
	}
}

// TestTransportNoFaultsNoRetries: on a lossless engine the transport only
// adds headers — retries must stay rare (acks can be slow, never lost).
func TestTransportNoFaultsNoRetries(t *testing.T) {
	inner, transports, _ := runFaultyFlood(t, FaultProfile{Seed: 2}, 2, 20, 500_000)
	for _, n := range inner {
		if len(n.got) != 20 {
			t.Fatalf("lossless run incomplete: %d/20", len(n.got))
		}
	}
	stats := SumTransportStats(transports)
	if stats.Sent != 40 {
		t.Fatalf("sent=%d want 40", stats.Sent)
	}
	// RetryTicks (8) exceeds the round trip (≤ 2·maxDelay = 6 plus one
	// activation), so nothing should ever be retransmitted.
	if stats.Retries != 0 {
		t.Fatalf("lossless run retransmitted %d times", stats.Retries)
	}
	if stats.Duplicates != 0 {
		t.Fatalf("lossless run saw %d duplicates", stats.Duplicates)
	}
}

// TestFaultPlanDropsWithoutTransport: raw (unwrapped) handlers really lose
// messages under a drop plan — the faults are injected, not simulated.
func TestFaultPlanDropsWithoutTransport(t *testing.T) {
	rec := &recorder{}
	eng := newAsync([]Handler{&pingNode{}, rec}, 3, 3.0, 0, nil)
	eng.SetFaultPlan(NewFaultPlan(FaultProfile{Seed: 3, DropRate: 0.5}))
	for i := 0; i < 100; i++ {
		eng.Context(0).Send(1, &seqMsg{N: i})
	}
	eng.RunUntil(func() bool { return false }, 5_000)
	drops, _, _, _ := eng.Faults().Counts()
	if drops == 0 {
		t.Fatal("no drops injected at rate 0.5")
	}
	if got := len(rec.order); got != 100-int(drops) {
		t.Fatalf("delivered %d of 100 with %d drops", got, drops)
	}
}

// TestFaultPlanDeterministicPerSeed: identical seeds must produce
// identical fault traces and identical metrics.
func TestFaultPlanDeterministicPerSeed(t *testing.T) {
	run := func() (string, int64) {
		inner, _, eng := runFaultyFlood(t, FaultProfile{Seed: 9, DropRate: 0.2, DupRate: 0.1, CrashRate: 0.01}, 3, 15, 2_000_000)
		_ = inner
		var buf bytes.Buffer
		if err := eng.Faults().Trace().Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), eng.Metrics().Messages
	}
	tr1, m1 := run()
	tr2, m2 := run()
	if tr1 != tr2 {
		t.Fatal("fault traces differ between identical runs")
	}
	if m1 != m2 {
		t.Fatalf("metrics differ: %d vs %d messages", m1, m2)
	}
	if tr1 == "" {
		t.Fatal("no faults recorded at 20 percent drop")
	}
}

// TestFaultTraceEncodeDecodeRoundTrip checks the trace line format.
func TestFaultTraceEncodeDecodeRoundTrip(t *testing.T) {
	tr := &FaultTrace{Events: []FaultEvent{
		{Seq: 1, Kind: FaultDrop, Node: 3},
		{Seq: 9, Kind: FaultDup, Node: 0},
		{Seq: 12, Kind: FaultDelay, Node: 2, Amount: 8},
		{Seq: 40, Kind: FaultCrash, Node: 1, Amount: 10},
	}}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFaultTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("decoded %d events, want %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

// TestCrashWindowSilencesNode: during a crash window the node neither
// activates nor receives; afterwards it resumes with state intact.
func TestCrashWindowSilencesNode(t *testing.T) {
	profile := FaultProfile{Seed: 5, CrashRate: 0.05, CrashLength: 20}
	inner, _, eng := runFaultyFlood(t, profile, 2, 10, 2_000_000)
	_, _, _, crashes := eng.Faults().Counts()
	if crashes == 0 {
		t.Fatal("no crash injected at rate 0.05")
	}
	for i, n := range inner {
		if len(n.got) != 10 {
			t.Fatalf("node %d lost payloads across crashes: %d/10", i, len(n.got))
		}
	}
}

// TestParseFaultProfile covers named profiles and key=value specs.
func TestParseFaultProfile(t *testing.T) {
	p, err := ParseFaultProfile("drop20dup", 7)
	if err != nil || p.DropRate != 0.20 || p.DupRate != 0.10 || p.Seed != 7 {
		t.Fatalf("drop20dup: %+v, %v", p, err)
	}
	p, err = ParseFaultProfile("drop=0.3,dup=0.05,crash=0.01,crashlen=15", 1)
	if err != nil || p.DropRate != 0.3 || p.DupRate != 0.05 || p.CrashRate != 0.01 || p.CrashLength != 15 {
		t.Fatalf("spec: %+v, %v", p, err)
	}
	if _, err = ParseFaultProfile("bogus", 1); err == nil {
		t.Fatal("bogus spec must fail")
	}
	if _, err = ParseFaultProfile("frob=1", 1); err == nil {
		t.Fatal("unknown key must fail")
	}
}

// TestFaultReplayMatchesRecording: a replayed plan injects the same faults
// and yields the same metrics as the recording run.
func TestFaultReplayMatchesRecording(t *testing.T) {
	profile := FaultProfile{Seed: 13, DropRate: 0.2, DupRate: 0.1, DelayRate: 0.05, CrashRate: 0.005}

	run := func(plan *FaultPlan) (string, string) {
		inner := make([]*floodNode, 3)
		hs := make([]Handler, 3)
		for i := range inner {
			inner[i] = newFloodNode(NodeID((i+1)%3), 15, i*15)
			hs[i] = inner[i]
		}
		wrapped, transports := WrapAllReliable(hs, TransportConfig{})
		eng := newAsync(wrapped, 77, 3.0, 0, nil)
		eng.SetFaultPlan(plan)
		done := func() bool {
			for _, n := range inner {
				if len(n.got) != 15 {
					return false
				}
			}
			for _, tr := range transports {
				if tr.Outstanding() > 0 {
					return false
				}
			}
			return true
		}
		if !eng.RunUntil(done, 2_000_000) {
			t.Fatal("run incomplete")
		}
		var buf bytes.Buffer
		if err := eng.Faults().Trace().Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), fmt.Sprint(eng.Metrics())
	}

	trace1, metrics1 := run(NewFaultPlan(profile))
	decoded, err := DecodeFaultTrace(bytes.NewBufferString(trace1))
	if err != nil {
		t.Fatal(err)
	}
	trace2, metrics2 := run(ReplayFaultPlan(decoded))
	if trace2 != trace1 {
		t.Fatalf("replayed trace differs:\n--- recorded\n%s\n--- replayed\n%s", trace1, trace2)
	}
	if metrics2 != metrics1 {
		t.Fatalf("replayed metrics differ: %s vs %s", metrics1, metrics2)
	}
}
