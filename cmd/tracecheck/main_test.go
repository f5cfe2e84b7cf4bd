package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpq/internal/obs"
)

// The fixture interleaves two senders whose own rounds only grow while the
// global sequence jumps backwards — the shape every network-runtime trace
// has, because deliveries carry the sender's local tick. Each sender mixes
// "xport/*" frames (cross-process links) with bare protocol kinds (links
// inside one process, which the reliable transport bypasses), as a
// daemon's trace does.
func openFixture(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Open("testdata/per_node_rounds.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestPerNodeFixturePassesRelaxedCheck(t *testing.T) {
	sum, err := obs.ValidateTraceOpts(openFixture(t), obs.TraceOptions{PerNodeRounds: true})
	if err != nil {
		t.Fatalf("per-node validation rejected the fixture: %v", err)
	}
	if sum.Deliveries != 7 {
		t.Fatalf("got %d deliveries, want 7", sum.Deliveries)
	}
	bare := sum.Kinds["tree/up"] + sum.Kinds["tree/up[1]"] + sum.Kinds["route/put"]
	if framed := sum.Kinds["xport/msg"] + sum.Kinds["xport/ack"]; bare != 3 || framed != 4 {
		t.Fatalf("fixture should mix bare and framed kinds, got %d bare, %d framed (%v)", bare, framed, sum.Kinds)
	}
}

func TestPerNodeFixtureFailsGlobalCheck(t *testing.T) {
	_, err := obs.ValidateTrace(openFixture(t))
	if err == nil || !strings.Contains(err.Error(), "round 1 after round 5") {
		t.Fatalf("global validation should reject the interleaved fixture, got %v", err)
	}
}

func TestPerNodeCheckStillCatchesSenderRegression(t *testing.T) {
	trace := `{"schema":"dpq-trace/1"}
{"seq":1,"round":7,"time":0.001,"from":0,"to":1,"kind":"xport/msg","bits":64,"group":0}
{"seq":2,"round":6,"time":0.002,"from":0,"to":1,"kind":"xport/msg","bits":64,"group":0}
`
	_, err := obs.ValidateTraceOpts(strings.NewReader(trace), obs.TraceOptions{PerNodeRounds: true})
	if err == nil || !strings.Contains(err.Error(), "node 0 round 6 after round 7") {
		t.Fatalf("per-node validation should reject a sender's round regression, got %v", err)
	}
}

// TestCrossCheckPhaseSums checks that -metrics rejects a document whose
// phase rows do not add up to the engine totals, even when the per-kind
// counts agree with the trace.
func TestCrossCheckPhaseSums(t *testing.T) {
	sum := &obs.TraceSummary{Deliveries: 3, TotalBits: 48, Kinds: map[string]int64{"tree/up": 3}}
	write := func(phases string) string {
		path := filepath.Join(t.TempDir(), "metrics.json")
		doc := `{"engine":{"messages":3,"totalBits":48},"kinds":{"tree/up":{"count":3}},"phases":` + phases + `}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := `[{"name":"a","messages":1,"bits":16},{"name":"b","messages":2,"bits":32}]`
	if err := crossCheck(write(good), sum); err != nil {
		t.Fatalf("consistent document rejected: %v", err)
	}
	for _, bad := range []string{
		`[{"name":"a","messages":1,"bits":16},{"name":"b","messages":1,"bits":32}]`,
		`[{"name":"a","messages":1,"bits":16},{"name":"b","messages":2,"bits":31}]`,
	} {
		if err := crossCheck(write(bad), sum); err == nil || !strings.Contains(err.Error(), "phases sum") {
			t.Fatalf("doctored phases %s: got %v, want a phase-sum mismatch", bad, err)
		}
	}
}
