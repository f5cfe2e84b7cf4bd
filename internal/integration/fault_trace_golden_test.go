package integration

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"dpq/internal/obs"
)

// The reliable transport's wire behaviour is pinned, not just its
// outcome: for every soak profile and a handful of seeds the dpq-trace/1
// export of a faulty asynchronous run — every frame, ack and
// retransmission with its delivery time — must hash to the digest recorded
// in testdata/fault_trace_digests.txt. A change to the transport's state
// keeping that moves a single retransmission instant shows up here.
// Regenerate (only when a schedule change is intended) with
//
//	go test ./internal/integration -run TestFaultTraceGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fault_trace_digests.txt from this build")

const (
	goldenDigestFile = "testdata/fault_trace_digests.txt"
	goldenSeeds      = 5
)

// faultTraceDigest runs one cell of the soak matrix with a trace observer
// and returns the sha256 of the exported JSONL.
func faultTraceDigest(t *testing.T, proto, profile string, seed uint64) string {
	t.Helper()
	sum := sha256.New()
	tw := obs.NewTraceWriter(sum)
	target, eng := soakCell(t, proto, profile, seed)
	eng.SetObserver(tw.Observer())
	runFaultSoak(t, target, eng, 15_000_000)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Lines() == 0 {
		t.Fatal("empty trace")
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

func TestFaultTraceGolden(t *testing.T) {
	got := map[string]string{}
	for _, proto := range []string{"skeap", "seap"} {
		for _, profile := range soakProfiles {
			for seed := uint64(0); seed < goldenSeeds; seed++ {
				key := fmt.Sprintf("%s/%s/seed%d", proto, profile, seed)
				got[key] = faultTraceDigest(t, proto, profile, seed)
			}
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *updateGolden {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(goldenDigestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenDigestFile, sc.Text())
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d digests, this build ran %d cells", goldenDigestFile, len(want), len(got))
	}
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: dpq-trace/1 digest %s, recorded %s — the transport's wire schedule changed", k, got[k], want[k])
		}
	}
}
