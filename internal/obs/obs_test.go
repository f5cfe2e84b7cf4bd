package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// runSkeap drives a small Skeap batch with the given observer attached and
// returns the engine metrics.
func runSkeap(t *testing.T, n int, observer func(sim.Delivery), col *obs.Collector) *sim.Metrics {
	t.Helper()
	h := skeap.New(skeap.Config{N: n, P: 4, Seed: 7})
	h.SetAutoRepeat(false)
	for host := 0; host < n; host++ {
		h.InjectInsert(host, prio.ElemID(host+1), host%4, "")
		h.InjectDelete(host)
	}
	eng := h.NewSyncEngine()
	eng.SetObserver(observer)
	h.SetObs(col)
	h.StartIteration(eng.Context(h.Overlay().Anchor))
	if !eng.RunUntil(h.Done, 100000) {
		t.Fatal("skeap batch did not complete")
	}
	return eng.Metrics()
}

func TestKindCountsSumToEngineMessages(t *testing.T) {
	col := obs.NewCollector()
	m := runSkeap(t, 16, col.Observer(), col)
	if m.Messages == 0 {
		t.Fatal("no messages")
	}
	if got := col.TotalMessages(); got != m.Messages {
		t.Fatalf("per-kind counts sum to %d, engine counted %d", got, m.Messages)
	}
	var bits int64
	for _, ks := range col.Kinds() {
		bits += ks.Bits
	}
	if bits != m.TotalBits {
		t.Fatalf("per-kind bits sum to %d, engine counted %d", bits, m.TotalBits)
	}
}

func TestPhaseStatsCoverEveryDelivery(t *testing.T) {
	col := obs.NewCollector()
	m := runSkeap(t, 16, col.Observer(), col)
	phases := col.Phases()
	var msgs, bits int64
	names := map[string]bool{}
	for _, p := range phases {
		msgs += p.Messages
		bits += p.Bits
		names[p.Name] = true
		if p.Segments == 0 {
			t.Fatalf("phase %q has deliveries but 0 segments", p.Name)
		}
	}
	if msgs != m.Messages || bits != m.TotalBits {
		t.Fatalf("phase totals (%d msgs, %d bits) differ from engine (%d, %d)",
			msgs, bits, m.Messages, m.TotalBits)
	}
	for _, want := range []string{"skeap:gather", "skeap:scatter", "skeap:dht"} {
		if !names[want] {
			t.Fatalf("phase %q missing from %v", want, phases)
		}
	}
}

func TestTraceWriterCountsAndValidates(t *testing.T) {
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	col := obs.NewCollector()
	m := runSkeap(t, 8, obs.Multi(col.Observer(), tw.Observer()), nil)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Lines() != m.Messages {
		t.Fatalf("trace has %d lines, engine delivered %d", tw.Lines(), m.Messages)
	}
	sum, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Deliveries != m.Messages || sum.TotalBits != m.TotalBits {
		t.Fatalf("trace summary %+v disagrees with engine (%d msgs, %d bits)",
			sum, m.Messages, m.TotalBits)
	}
	for k, c := range sum.Kinds {
		if ks := col.Kinds()[k]; ks.Count != c {
			t.Fatalf("kind %q: trace %d, collector %d", k, c, ks.Count)
		}
	}
}

func TestFaultyAsyncTraceByteIdentical(t *testing.T) {
	// Acceptance criterion at the unit level: the same seed and the same
	// fault profile must yield byte-identical JSONL traces.
	run := func() []byte {
		h := skeap.New(skeap.Config{N: 8, P: 4, Seed: 5})
		for host := 0; host < 8; host++ {
			h.InjectInsert(host, prio.ElemID(host+1), host%4, "")
			h.InjectDelete(host)
		}
		eng, _ := sim.BuildFaulty(h.Spec(sim.KindAsync), 3.0, sim.NewFaultPlan(sim.FaultProfile{
			DropRate: 0.2, DupRate: 0.1, DelayRate: 0.05, Seed: 11,
		}))
		var buf bytes.Buffer
		tw := obs.NewTraceWriter(&buf)
		eng.SetObserver(tw.Observer())
		if !eng.RunUntil(h.Done, 10_000_000) {
			t.Fatal("faulty run did not drain")
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed faulty runs produced different traces")
	}
}

func TestValidateTraceRejectsMalformed(t *testing.T) {
	head := "{\"schema\":\"dpq-trace/1\"}\n"
	line1 := `{"seq":1,"round":1,"time":0,"from":0,"to":1,"kind":"x","bits":8,"group":0}` + "\n"
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", "empty trace"},
		{"badSchema", "{\"schema\":\"nope/9\"}\n", "schema"},
		{"seqGap", head + line1 + `{"seq":3,"round":1,"time":0,"from":0,"to":1,"kind":"x","bits":8,"group":0}` + "\n", "seq"},
		{"missingField", head + `{"seq":1,"round":1,"time":0,"from":0,"to":1,"kind":"x","bits":8}` + "\n", "missing required field"},
		{"unknownField", head + `{"seq":1,"round":1,"time":0,"from":0,"to":1,"kind":"x","bits":8,"group":0,"extra":1}` + "\n", "unknown field"},
		{"roundRegress", head + line1 + `{"seq":2,"round":0,"time":0,"from":0,"to":1,"kind":"x","bits":8,"group":0}` + "\n", "round"},
	}
	for _, tc := range cases {
		if _, err := obs.ValidateTrace(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if sum, err := obs.ValidateTrace(strings.NewReader(head + line1)); err != nil || sum.Deliveries != 1 {
		t.Fatalf("valid trace rejected: %v %+v", err, sum)
	}
}

func TestCollectorPhaseAttribution(t *testing.T) {
	col := obs.NewCollector()
	obsFn := col.Observer()
	d := func(round, group, bits int) sim.Delivery {
		return sim.Delivery{Round: round, Group: group, Bits: bits, Msg: testMsg{}}
	}
	obsFn(d(1, 0, 8)) // before any Phase: the "-" phase
	col.Phase("a")
	obsFn(d(1, 0, 16))
	obsFn(d(1, 0, 16)) // same round, same group: congestion 2
	obsFn(d(2, 1, 16))
	col.Phase("a") // same-name transition: no-op
	col.Phase("b")
	obsFn(d(2, 0, 32))
	col.Phase("a") // resume: second segment of a
	obsFn(d(3, 0, 16))

	phases := col.Phases()
	byName := map[string]obs.PhaseStats{}
	for _, p := range phases {
		byName[p.Name] = p
	}
	if p := byName["-"]; p.Messages != 1 || p.Bits != 8 {
		t.Fatalf("implicit phase: %+v", p)
	}
	a := byName["a"]
	if a.Segments != 2 || a.Messages != 4 || a.Bits != 64 {
		t.Fatalf("phase a: %+v", a)
	}
	if a.ActiveRounds != 3 || a.Congestion != 2 {
		t.Fatalf("phase a rounds/congestion: %+v", a)
	}
	if b := byName["b"]; b.Messages != 1 || b.Segments != 1 {
		t.Fatalf("phase b: %+v", b)
	}
	// Order is first-seen.
	if phases[0].Name != "-" || phases[1].Name != "a" || phases[2].Name != "b" {
		t.Fatalf("phase order: %v", phases)
	}
	// Nil collector: Phase must not panic, Observer must be nil.
	var nilCol *obs.Collector
	nilCol.Phase("x")
	if nilCol.Observer() != nil {
		t.Fatal("nil collector observer must be nil")
	}
}

func TestMulti(t *testing.T) {
	if obs.Multi(nil, nil) != nil {
		t.Fatal("Multi of nils must be nil")
	}
	count := 0
	f := func(sim.Delivery) { count++ }
	obs.Multi(nil, f, nil)(sim.Delivery{Msg: testMsg{}})
	obs.Multi(f, f)(sim.Delivery{Msg: testMsg{}})
	if count != 3 {
		t.Fatalf("count=%d, want 3", count)
	}
}

type testMsg struct{}

func (testMsg) Bits() int    { return 8 }
func (testMsg) Kind() string { return "test/msg" }

// markMsg is the one message of TestPhaseMarkMidRound.
type markMsg struct{}

func (markMsg) Bits() int { return 8 }

// marker is a node whose handler optionally enters a phase on receipt, as
// a protocol's anchor does from inside a handler.
type marker struct {
	col   *obs.Collector
	phase string
}

func (m marker) HandleMessage(*sim.Context, sim.NodeID, sim.Message) { m.col.Phase(m.phase) }
func (marker) Activate(*sim.Context)                                 {}

// TestPhaseMarkMidRound pins per-delivery phase attribution within one
// round: node 0's handler enters phase "b" before node 1's delivery of the
// same round is seen, so the first delivery counts to "a" and the second to
// "b". The engine is wired as dpqsim wires it (Spec.Observer from the
// collector).
func TestPhaseMarkMidRound(t *testing.T) {
	col := obs.NewCollector()
	eng := sim.Build(sim.Spec{
		Handlers: []sim.Handler{marker{col, "b"}, marker{col, "b"}},
		Observer: col.Observer(),
	})
	col.Phase("a")
	eng.Context(1).Send(0, markMsg{})
	eng.Context(0).Send(1, markMsg{})
	if !eng.RunUntil(func() bool { return eng.Metrics().Messages == 2 }, 4) {
		t.Fatal("messages not delivered")
	}
	if r := eng.Metrics().Rounds; r != 1 {
		t.Fatalf("deliveries took %d rounds, want 1", r)
	}
	got := map[string]int64{}
	for _, p := range col.Phases() {
		got[p.Name] = p.Messages
	}
	if got["a"] != 1 || got["b"] != 1 {
		t.Fatalf("phase messages %v, want a:1 b:1", got)
	}
}
