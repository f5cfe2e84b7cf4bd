// Command benchmark is the repository's yardstick: it boots real loopback
// dpqd clusters as child processes, drives them from one generator process
// over internal/clientproto, drives the simulator through the public dpq
// facade, checks every run for correctness and prints every metric by name
// with its unit. See README.md for the workloads, the metrics and how a
// per-layer number is expected to move an end-to-end one.
//
// Run it from this directory (it is a module of its own, so that the root
// module's build and tests never see it):
//
//	go run .                         # all seven workloads: untraced, then traced
//	go run . -workload cluster-open  # one workload (or a comma-separated list)
//	go run . -trace 1                # only the traced and layer passes
//	go run . -layers                 # only the layer micro-passes
//	go run . -selfcheck -runs 2      # two sets of runs must agree within bounds
//	go run . -json                   # machine-readable results
//	go run . -seed 7                 # another generated input
//
// The driver's contract form is `bash benchmark/run.sh --workload W --seed N
// --seconds S --trace 0|1`: one pass of one workload, whose last line of
// standard output is one JSON object. BENCHMARK.json lists four of the
// seven workloads for it (spec.go says which and why).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run, or a comma-separated list (default: all)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", runSeconds, "measured length of a timed run; fixed work scales with it")
	trace := flag.Int("trace", -1, "0: untraced end-to-end pass; 1: traced pass and layer passes; default both")
	layers := flag.Bool("layers", false, "run only the layer micro-passes")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of -runs runs and fail if their medians differ by more than a metric's bound")
	runs := flag.Int("runs", 2, "runs per set with -selfcheck")
	asJSON := flag.Bool("json", false, "print results as JSON")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	binDir := flag.String("bindir", filepath.Join("..", ".bench_build", "bin"), "where the daemon binary is built")
	tmpDir := flag.String("tmpdir", filepath.Join("..", ".bench_build", "tmp"), "scratch root for WAL directories")
	outDir := flag.String("out", "out", "trace output directory")
	child := flag.String("child", "", "internal: run a simulator workload in this process")
	flag.Parse()

	if *spec {
		b, err := benchmarkJSON()
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(b)
		return
	}
	if *child != "" {
		simChild(*child, *seed, *seconds, *trace == 1)
		return
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fatalf("interrupted")
	}()

	names, err := selectWorkloads(*workload)
	if err != nil {
		fatalf("%v", err)
	}
	e := env{tmp: *tmpDir, out: *outDir}
	if e.dpqd, err = buildDaemon(*binDir); err != nil {
		fatalf("%v", err)
	}

	contract := *workload != "" && len(names) == 1 && *trace >= 0 && !*selfcheck && !*layers && !*asJSON
	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(names, e, *seed, *seconds, *runs))
	case contract:
		os.Exit(runContract(names[0], e, *seed, *seconds, *trace == 1))
	}

	if !*asJSON {
		printEnvironment(e)
	}
	ok := true
	var all []*result
	for _, name := range names {
		passes := []bool{false, true}
		if *trace == 0 {
			passes = []bool{false}
		} else if *trace == 1 || *layers {
			passes = []bool{true}
		}
		for _, traced := range passes {
			r, err := runWorkload(name, e, *seed, *seconds, traced, *layers)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			ok = ok && r.correct()
			all = append(all, r)
			if !*asJSON {
				printResult(os.Stdout, r, traced)
			}
		}
	}
	if *asJSON {
		printJSON(all)
	}
	if !ok {
		os.Exit(1)
	}
}

// fatalf ends the benchmark: kill every child, say why, exit non-zero.
func fatalf(format string, args ...any) {
	killAll()
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// selectWorkloads parses -workload.
func selectWorkloads(arg string) ([]string, error) {
	known := map[string]bool{}
	var all []string
	for _, w := range workloads {
		known[w.Name] = true
		all = append(all, w.Name)
	}
	if arg == "" {
		return all, nil
	}
	names := strings.Split(arg, ",")
	for _, n := range names {
		if !known[n] {
			return nil, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(all, ", "))
		}
	}
	return names, nil
}

// buildDaemon builds cmd/dpqd from this checkout; the build is not part of
// any measurement.
func buildDaemon(binDir string) (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run from the benchmark directory (go run -C benchmark . or benchmark/run.sh): %v", err)
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(abs, "dpqd")
	cmd := exec.Command("go", "build", "-o", bin, "dpq/cmd/dpqd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building dpqd: %w", err)
	}
	return bin, nil
}

// watchdog bounds one pass: a wedged cluster must fail the run, not hang it.
func watchdog(name string) *time.Timer {
	return time.AfterFunc(150*time.Second, func() { fatalf("%s: no result within 150 s", name) })
}

// runWorkload runs one pass of one workload.
func runWorkload(name string, e env, seed uint64, seconds float64, traced, layersOnly bool) (*result, error) {
	defer watchdog(name).Stop()
	if s, ok := servedSpecs[name]; ok {
		switch {
		case layersOnly:
			r := newResult(name)
			runLayers(r, name, e, seconds)
			return r, nil
		case traced:
			return runTraced(s, e, seed, seconds)
		}
		return runServed(s, e, seed, seconds)
	}
	if layersOnly {
		return newResult(name), nil
	}
	return runSim(name, seed, seconds, traced)
}

// runContract runs one pass and prints the driver's JSON object as the last
// line of standard output: every end-to-end metric untraced, every
// per-layer metric traced.
func runContract(name string, e env, seed uint64, seconds float64, traced bool) int {
	r, err := runWorkload(name, e, seed, seconds, traced, false)
	if err != nil {
		fatalf("%s: %v", name, err)
	}
	printResult(os.Stderr, r, traced)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	metrics := map[string]mv{}
	for _, m := range specs {
		// A layer metric a workload does not exercise reads 0.
		metrics[m.Name] = mv{r.metrics[m.Name], m.Unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), attempted, r.failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", out)
	if !r.correct() {
		return 1
	}
	return 0
}

// printEnvironment records what the numbers depend on besides the code.
func printEnvironment(e env) {
	fmt.Printf("# go %s, GOMAXPROCS %d, nproc %d, WAL filesystem %s, flush policy: group-commit fsync on, tick %v\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), fsType(e.tmp), tick)
}

// fsType names the filesystem the WAL directories live on.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("type 0x%X", uint32(st.Type))
}

// printResult lists one pass's metrics by name, gated metrics first.
func printResult(w *os.File, r *result, traced bool) {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	verdict := "correct"
	if !r.correct() {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "\n== %s (%s pass): %s, %d requests attempted, %d failed\n", r.workload, pass, verdict, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	for _, p := range r.warnings {
		fmt.Fprintf(w, "   warning: %s\n", p)
	}
	printed := map[string]bool{}
	line := func(name string, bound float64) {
		v, ok := r.metrics[name]
		if !ok || printed[name] {
			return
		}
		printed[name] = true
		s := fmt.Sprintf("   %-38s %14.4f %-6s", name, v, unitOf(name))
		if bound > 0 {
			s += fmt.Sprintf(" bound %2.0f%%", bound*100)
		}
		if n := r.samples[name]; n > 0 {
			s += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, s)
	}
	if !traced {
		for _, m := range endToEnd {
			line(m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		line(m.Name, 0)
	}
	var rest []string
	for name := range r.metrics {
		if !printed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		line(name, 0)
	}
}

// printJSON prints every pass's metrics as one JSON document.
func printJSON(all []*result) {
	type pass struct {
		Workload  string             `json:"workload"`
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Problems  []string           `json:"problems,omitempty"`
		Warnings  []string           `json:"warnings,omitempty"`
		Metrics   map[string]float64 `json:"metrics"`
		Samples   map[string]int     `json:"samples,omitempty"`
	}
	doc := struct {
		Go         string `json:"go"`
		GoMaxProcs int    `json:"gomaxprocs"`
		NumCPU     int    `json:"nproc"`
		Passes     []pass `json:"passes"`
	}{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), nil}
	for _, r := range all {
		doc.Passes = append(doc.Passes, pass{r.workload, r.correct(), r.attempted, r.failed, r.problems, r.warnings, r.metrics, r.samples})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", b)
}
