package dpq

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Smoke tests for the command-line tools: each binary must run a small
// configuration to completion and report verified semantics. Every main
// package is built once per test binary, on first use, and then executed
// directly — so exit codes are the program's own.

var bins struct {
	sync.Mutex
	dir   string
	built map[string]string // package path → executable ("" after a failed build)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bins.dir != "" {
		os.RemoveAll(bins.dir)
	}
	os.Exit(code)
}

// binary returns the executable of the main package at pkg, building it if
// this is its first use.
func binary(t *testing.T, pkg string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping CLI smoke test in -short mode")
	}
	bins.Lock()
	defer bins.Unlock()
	if bin, ok := bins.built[pkg]; ok {
		if bin == "" {
			t.Fatalf("%s failed to build earlier in this run", pkg)
		}
		return bin
	}
	if bins.dir == "" {
		dir, err := os.MkdirTemp("", "dpq-cmds-")
		if err != nil {
			t.Fatal(err)
		}
		bins.dir, bins.built = dir, map[string]string{}
	}
	bin := filepath.Join(bins.dir, filepath.Base(pkg))
	bins.built[pkg] = ""
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	bins.built[pkg] = bin
	return bin
}

// runCmd runs the main package at pkg to a zero exit and returns its
// combined output.
func runCmd(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	out, err := exec.Command(binary(t, pkg), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

// runCmdFail runs the main package at pkg expecting it to exit with code,
// and returns its combined output.
func runCmdFail(t *testing.T, code int, pkg string, args ...string) string {
	t.Helper()
	out, err := exec.Command(binary(t, pkg), args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != code {
		t.Fatalf("%s %v: got %v, want exit status %d\n%s", pkg, args, err, code, out)
	}
	return string(out)
}

// TestCmdDpqsimGoldenDigests pins the simulator's reference invocations
// byte for byte: the dpq-trace/1 export, stdout and (for the fault run) the
// recorded fault schedule must hash to the digests in
// testdata/dpqsim_digests.txt. Each line is
// "<trace|stdout|trace-out> <sha256> <dpqsim arguments>"; the invocations
// are the file's, so adding a line adds a pinned run. Regenerate (only when
// a change to what the protocols send is intended) with
//
//	go test -run TestCmdDpqsimGoldenDigests -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite the digests in testdata/dpqsim_digests.txt from this build")

func TestCmdDpqsimGoldenDigests(t *testing.T) {
	const file = "testdata/dpqsim_digests.txt"
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	type pin struct{ output, digest, args string }
	var pins []pin
	var invocations []string               // distinct arguments, in file order
	wanted := map[string]map[string]bool{} // arguments → outputs pinned
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 {
			t.Fatalf("malformed digest line %q", line)
		}
		p := pin{parts[0], parts[1], parts[2]}
		pins = append(pins, p)
		if wanted[p.args] == nil {
			wanted[p.args] = map[string]bool{}
			invocations = append(invocations, p.args)
		}
		wanted[p.args][p.output] = true
	}
	bin := binary(t, "./cmd/dpqsim")
	got := map[string]map[string]string{} // arguments → output → digest
	for _, args := range invocations {
		dir := t.TempDir()
		files := map[string]string{"trace": filepath.Join(dir, "run.jsonl"), "trace-out": filepath.Join(dir, "faults.txt")}
		argv := append(strings.Fields(args), "-trace-jsonl", files["trace"])
		if wanted[args]["trace-out"] {
			argv = append(argv, "-trace-out", files["trace-out"])
		}
		stdout, err := exec.Command(bin, argv...).Output()
		if err != nil {
			t.Fatalf("dpqsim %s: %v", args, err)
		}
		got[args] = map[string]string{}
		for output := range wanted[args] {
			data := stdout
			if output != "stdout" {
				if data, err = os.ReadFile(files[output]); err != nil {
					t.Fatal(err)
				}
			}
			got[args][output] = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	if len(got) != 7 {
		t.Fatalf("%d reference invocations recorded, want 7", len(got))
	}
	var out strings.Builder
	for _, p := range pins {
		digest := got[p.args][p.output]
		if digest != p.digest && !*updateGolden {
			t.Errorf("dpqsim %s: %s digest %s, recorded %s", p.args, p.output, digest, p.digest)
		}
		fmt.Fprintf(&out, "%s %s %s\n", p.output, digest, p.args)
	}
	if *updateGolden {
		if err := os.WriteFile(file, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCmdSkeapsim(t *testing.T) {
	out := runCmd(t, "./cmd/dpqsim", "skeap", "-n", "8", "-rounds", "8", "-lambda", "2")
	if !strings.Contains(out, "sequentially consistent") {
		t.Fatalf("dpqsim skeap output:\n%s", out)
	}
}

func TestCmdSeapsim(t *testing.T) {
	out := runCmd(t, "./cmd/dpqsim", "seap", "-n", "8", "-rounds", "8", "-lambda", "2")
	if !strings.Contains(out, "serializable") {
		t.Fatalf("dpqsim seap output:\n%s", out)
	}
}

func TestCmdKselectsim(t *testing.T) {
	out := runCmd(t, "./cmd/dpqsim", "kselect", "-n", "8", "-m", "256")
	if !strings.Contains(out, "matches the local sort") {
		t.Fatalf("dpqsim kselect output:\n%s", out)
	}
}

func TestCmdPhasetrace(t *testing.T) {
	out := runCmd(t, "./cmd/dpqsim", "phases", "-n", "8", "-ops", "1")
	if !strings.Contains(out, "batch anatomy") || !strings.Contains(out, "tree/up") {
		t.Fatalf("dpqsim phases output:\n%s", out)
	}
}

func TestCmdChurnsim(t *testing.T) {
	out := runCmd(t, "./cmd/dpqsim", "churn", "-proto", "skeap", "-waves", "3", "-ops", "8")
	if !strings.Contains(out, "churn complete") {
		t.Fatalf("dpqsim churn output:\n%s", out)
	}
}

func TestCmdChurnsimFaults(t *testing.T) {
	out := runCmd(t, "./cmd/dpqsim", "churn", "-faults", "drop20dup", "-fault-seed", "7", "-waves", "3", "-ops", "8")
	if !strings.Contains(out, "fault soak complete") || !strings.Contains(out, "conservation ok") {
		t.Fatalf("dpqsim churn -faults output:\n%s", out)
	}
	if !strings.Contains(out, "retries=") || strings.Contains(out, "drops=0 ") {
		t.Fatalf("dpqsim churn -faults injected nothing:\n%s", out)
	}
}

func TestCmdChurnsimFaultTraceReplayIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "faults.txt")
	base := []string{"churn", "-proto", "seap", "-n", "4", "-waves", "2", "-ops", "6"}
	args := append(append([]string{}, base...), "-faults", "drop5", "-fault-seed", "3")
	out1 := runCmd(t, "./cmd/dpqsim", append(args, "-trace-out", trace)...)
	// Replay mode takes the schedule from the trace alone; combining it
	// with -faults/-fault-seed is rejected (see TestCmdChurnsimConflictingFlags).
	out2 := runCmd(t, "./cmd/dpqsim", append(append([]string{}, base...), "-trace-in", trace)...)
	if out1 != out2 {
		t.Fatalf("fault replay differs from recording:\n--- record\n%s\n--- replay\n%s", out1, out2)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("fault trace not written: %v", err)
	}
	// Same seed without the trace must also reproduce bit-identically.
	out3 := runCmd(t, "./cmd/dpqsim", args...)
	if out3 != out1 {
		t.Fatalf("same-seed rerun differs:\n--- first\n%s\n--- rerun\n%s", out1, out3)
	}
}

func TestCmdBenchallQuickSubset(t *testing.T) {
	// benchall -quick takes several seconds; make sure it at least starts
	// and emits a table when run to completion.
	if testing.Short() {
		t.Skip("skipping in -short mode")
	}
	out := runCmd(t, "./cmd/benchall", "-quick")
	if !strings.Contains(out, "### E-F2") || !strings.Contains(out, "### E24") {
		t.Fatalf("benchall output truncated:\n%.600s", out)
	}
}

func TestCmdBenchallExpFilter(t *testing.T) {
	// -exp must run exactly the selected tables and reject unknown IDs.
	out := runCmd(t, "./cmd/benchall", "-quick", "-exp", "E-F2")
	if !strings.Contains(out, "### E-F2") {
		t.Fatalf("benchall -exp dropped the selected table:\n%.600s", out)
	}
	if strings.Contains(out, "### E1 ") || strings.Contains(out, "### E15") {
		t.Fatalf("benchall -exp ran unselected tables:\n%.600s", out)
	}
	out = runCmdFail(t, 1, "./cmd/benchall", "-quick", "-exp", "E999")
	if !strings.Contains(out, "unknown experiment") {
		t.Fatalf("benchall unknown -exp message:\n%s", out)
	}
	out = runCmd(t, "./cmd/benchall", "-list")
	for _, id := range []string{"E-F2", "E24", "E26", "E27"} {
		if !strings.Contains(out, id) {
			t.Fatalf("benchall -list missing %s:\n%s", id, out)
		}
	}
}

func TestCmdChurnsimConflictingFlags(t *testing.T) {
	out := runCmdFail(t, 2, "./cmd/dpqsim", "churn", "-trace-in", "whatever.txt", "-faults", "drop5")
	if !strings.Contains(out, "cannot be combined") {
		t.Fatalf("dpqsim churn conflict message:\n%s", out)
	}
	out = runCmdFail(t, 2, "./cmd/dpqsim", "churn", "-trace-in", "whatever.txt", "-fault-seed", "3")
	if !strings.Contains(out, "cannot be combined") {
		t.Fatalf("dpqsim churn conflict message:\n%s", out)
	}
}

func TestCmdTracedRunValidates(t *testing.T) {
	// End-to-end instrumentation: a traced dpqsim skeap run must produce a
	// JSONL trace and a metrics document that tracecheck accepts and
	// cross-checks against each other.
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	metrics := filepath.Join(dir, "run.json")
	runCmd(t, "./cmd/dpqsim", "skeap", "-n", "8", "-rounds", "6", "-lambda", "2",
		"-trace-jsonl", trace, "-metrics-out", metrics)
	out := runCmd(t, "./cmd/tracecheck", "-metrics", metrics, trace)
	if !strings.Contains(out, "trace ok") || !strings.Contains(out, "cross-check ok") {
		t.Fatalf("tracecheck output:\n%s", out)
	}
}

func TestCmdTracedFaultyRunByteIdentical(t *testing.T) {
	// Acceptance criterion: a same-seed faulty async run writes a
	// byte-identical JSONL trace on every invocation.
	if testing.Short() {
		t.Skip("skipping in -short mode")
	}
	dir := t.TempDir()
	t1 := filepath.Join(dir, "a.jsonl")
	t2 := filepath.Join(dir, "b.jsonl")
	args := []string{"churn", "-faults", "drop20dup", "-fault-seed", "7", "-n", "6", "-waves", "2", "-ops", "8"}
	runCmd(t, "./cmd/dpqsim", append(append([]string{}, args...), "-trace-jsonl", t1)...)
	runCmd(t, "./cmd/dpqsim", append(append([]string{}, args...), "-trace-jsonl", t2)...)
	b1, err := os.ReadFile(t1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(t2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("same-seed faulty runs produced different traces")
	}
	if len(b1) == 0 {
		t.Fatal("empty trace")
	}
}

func TestCmdRecordReplayIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode")
	}
	dir := t.TempDir()
	rec := filepath.Join(dir, "wl.txt")
	out1 := runCmd(t, "./cmd/dpqsim", "seap", "-n", "6", "-rounds", "6", "-record", rec)
	out2 := runCmd(t, "./cmd/dpqsim", "seap", "-n", "6", "-rounds", "6", "-replay", rec)
	if out1 != out2 {
		t.Fatalf("replay differs from recording:\n--- record\n%s\n--- replay\n%s", out1, out2)
	}
	if _, err := os.Stat(rec); err != nil {
		t.Fatal("recording not written")
	}
}

func TestCmdDpqsweepQuickStrict(t *testing.T) {
	// The acceptance gate: the quick matrix must come back with zero
	// DIVERGED cells and zero oracle failures under -strict, and the JSON
	// matrix must carry the dpq-sweep/2 schema.
	dir := t.TempDir()
	out := runCmd(t, "./cmd/dpqsweep", "-quick", "-strict", "-json", filepath.Join(dir, "sweep.json"))
	if !strings.Contains(out, "0 diverged, 0 conformance failures\n") {
		t.Fatalf("dpqsweep not clean:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"schema": "dpq-sweep/2"`) {
		t.Fatalf("sweep JSON missing schema:\n%.300s", data)
	}
}

func TestCmdDpqsweepMatrixAndList(t *testing.T) {
	out := runCmd(t, "./cmd/dpqsweep", "-list")
	for _, exp := range []string{"zipf", "contention", "phase", "burst", "relax"} {
		if !strings.Contains(out, exp) {
			t.Fatalf("-list missing %q:\n%s", exp, out)
		}
	}
	out = runCmd(t, "./cmd/dpqsweep", "-quick", "-matrix", "proto=skeap;n=8;dist=zipf;zipfs=1.6;pattern=burstdrain")
	if !strings.Contains(out, "matrix") || !strings.Contains(out, "PASS") {
		t.Fatalf("ad-hoc matrix output:\n%s", out)
	}
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("ad-hoc matrix diverged:\n%s", out)
	}
}

func TestCmdDpqsweepRejectsBadMatrix(t *testing.T) {
	out := runCmdFail(t, 1, "./cmd/dpqsweep", "-matrix", "proto=ftp")
	if !strings.Contains(out, "unknown proto") {
		t.Fatalf("bad matrix error:\n%s", out)
	}
}
