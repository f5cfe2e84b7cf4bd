// Package harness runs the reproduction experiments E-F2 and E1–E29 of
// DESIGN.md and renders their tables: for every quantitative claim of the
// paper it measures the corresponding quantity on the simulator and
// reports the observed scaling next to the claim. cmd/benchall uses it to
// regenerate EXPERIMENTS.md.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper's claim being measured
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cols ...any) {
	row := make([]string, len(cols))
	for i, c := range cols {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Notef appends a formatted note.
func (t *Table) Notef(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Report is the full experiment suite output.
type Report struct {
	Tables  []Table
	Elapsed time.Duration
}

// Sizes scales the experiments: Quick for CI/tests, Full for the recorded
// EXPERIMENTS.md numbers.
type Sizes struct {
	NSweep      []int // process counts for scaling experiments
	LambdaSweep []int // injection rates
	Repeats     int   // repetitions for w.h.p.-style claims
	AsyncRuns   int   // adversarial schedules in E14
	ScaleSweep  []int // host counts for the large-scale experiment (E29)
}

// Quick returns CI-sized experiments (a few seconds).
func Quick() Sizes {
	return Sizes{
		NSweep:      []int{8, 32, 128},
		LambdaSweep: []int{1, 4, 16},
		Repeats:     3,
		AsyncRuns:   5,
		ScaleSweep:  []int{4096, 65536},
	}
}

// Full returns the publication-sized experiments (minutes).
func Full() Sizes {
	return Sizes{
		NSweep:      []int{8, 16, 32, 64, 128, 256, 512, 1024},
		LambdaSweep: []int{1, 2, 4, 8, 16, 32, 64},
		Repeats:     5,
		AsyncRuns:   25,
		ScaleSweep:  []int{4096, 65536, 1048576},
	}
}

// Experiment is one registry entry: a stable table ID (the "E26" of
// EXPERIMENTS.md and of benchall's -exp filter), a progress name and the
// runner producing the table.
type Experiment struct {
	ID   string
	Name string
	Run  func(Sizes) Table
}

// Registry lists every experiment in EXPERIMENTS.md order. cmd/benchall's
// -exp flag selects entries by ID.
func Registry() []Experiment {
	return []Experiment{
		{"E-F2", "tree structure", TreeHeight},
		{"E1", "Skeap rounds", SkeapRounds},
		{"E2", "Skeap congestion", SkeapCongestion},
		{"E3", "Skeap message bits", SkeapMessageBits},
		{"E4", "KSelect rounds", KSelectRounds},
		{"E5", "KSelect reduction", KSelectReduction},
		{"E6", "KSelect participation", KSelectParticipation},
		{"E7", "KSelect congestion", KSelectCongestion},
		{"E8", "Seap rounds", SeapRounds},
		{"E9", "Seap congestion", SeapCongestion},
		{"E10", "Seap vs Skeap bits", SeapVsSkeapBits},
		{"E11", "DHT hops", DHTHops},
		{"E12", "fairness", Fairness},
		{"E13", "join/leave", JoinLeave},
		{"E14", "semantics validation", SemanticsValidation},
		{"E15", "throughput vs baselines", ThroughputVsBaselines},
		{"E16", "KSelect vs baselines", KSelectVsBaselines},
		{"E17", "batching ablation", BatchingAblation},
		{"E18", "seq-consistent Seap", SeapSCCost},
		{"E19", "shared-memory contention", SharedMemoryContention},
		{"E20", "membership migration", MembershipMigration},
		{"E21", "approx quantile tradeoff", ApproxQuantileTradeoff},
		{"E22", "fault tolerance overhead", FaultToleranceOverhead},
		{"E23", "Skeap phase breakdown", SkeapPhaseBreakdown},
		{"E24", "KSelect phase breakdown", KSelectPhaseBreakdown},
		{"E26", "sweep: skew/contention envelopes", SweepEnvelopes},
		{"E27", "sweep: burst/phase conformance", SweepConformance},
		{"E28", "relax: throughput vs rank error", RelaxFrontier},
		{"E29", "million-node scale", MillionScale},
	}
}

// RunAll executes every experiment at the given sizes.
func RunAll(sz Sizes, progress io.Writer) *Report {
	rep, _ := RunFiltered(sz, progress, nil)
	return rep
}

// RunFiltered executes the experiments whose IDs are listed (nil or empty
// = all), preserving registry order. Unknown IDs are an error.
func RunFiltered(sz Sizes, progress io.Writer, ids []string) (*Report, error) {
	want := map[string]bool{}
	for _, id := range ids {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}
	start := time.Now()
	rep := &Report{}
	matched := map[string]bool{}
	for _, e := range Registry() {
		if len(want) > 0 && !want[strings.ToUpper(e.ID)] {
			continue
		}
		matched[strings.ToUpper(e.ID)] = true
		if progress != nil {
			fmt.Fprintf(progress, "running %s %s...\n", e.ID, e.Name)
		}
		rep.Tables = append(rep.Tables, e.Run(sz))
	}
	for id := range want {
		if !matched[id] {
			return nil, fmt.Errorf("harness: unknown experiment id %q", id)
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Render writes the report as Markdown.
func (r *Report) Render(w io.Writer) {
	for _, t := range r.Tables {
		fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
		fmt.Fprintf(w, "*Paper claim:* %s\n\n", t.Claim)
		fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
		seps := make([]string, len(t.Header))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Fprintf(w, "|%s|\n", strings.Join(seps, "|"))
		for _, row := range t.Rows {
			fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
		}
		for _, n := range t.Notes {
			fmt.Fprintf(w, "\n> %s\n", n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "_Suite completed in %v._\n", r.Elapsed.Round(time.Millisecond))
}
