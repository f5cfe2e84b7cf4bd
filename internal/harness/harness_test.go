package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestQuickSuiteRuns executes the whole experiment suite at CI sizes and
// sanity-checks every table's shape.
func TestQuickSuiteRuns(t *testing.T) {
	rep := RunAll(Quick(), nil)
	if want := len(Registry()); len(rep.Tables) != want {
		t.Fatalf("expected %d experiment tables, got %d", want, len(rep.Tables))
	}
	for _, tab := range rep.Tables {
		if tab.ID == "" || tab.Claim == "" || len(tab.Header) == 0 {
			t.Fatalf("table %q incomplete", tab.Title)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("table %s has no rows", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("table %s: row width %d != header width %d", tab.ID, len(row), len(tab.Header))
			}
		}
	}

	byID := map[string]Table{}
	for _, tab := range rep.Tables {
		byID[tab.ID] = tab
	}

	// E14: every adversarial execution must pass.
	for _, row := range byID["E14"].Rows {
		if row[1] != row[2] {
			t.Fatalf("semantics validation failures: %v", row)
		}
	}

	// E15: the coordinator-vs-batching congestion ratio must grow with n
	// and exceed 1 at the largest size.
	rows := byID["E15"].Rows
	first, last := rows[0], rows[len(rows)-1]
	r0, err0 := strconv.ParseFloat(first[5], 64)
	r1, err1 := strconv.ParseFloat(last[5], 64)
	if err0 != nil || err1 != nil || r1 <= r0 || r1 <= 1 {
		t.Fatalf("coordinator bottleneck should widen with n: first=%v last=%v", first, last)
	}

	// E17: disabling batching must slow draining down.
	rows = byID["E17"].Rows
	last = rows[len(rows)-1]
	slowdown, err := strconv.ParseFloat(last[3], 64)
	if err != nil || slowdown <= 1 {
		t.Fatalf("batching ablation shows no effect: %v", last)
	}

	// E18: the sequentially consistent variant must be slower and correct.
	for _, row := range byID["E18"].Rows {
		if row[4] != "true" {
			t.Fatalf("seq-consistent Seap variant violated semantics: %v", row)
		}
	}

	// E20: migration volume must be far below m.
	for _, row := range byID["E20"].Rows {
		m, _ := strconv.Atoi(row[1])
		moved, err := strconv.Atoi(row[3])
		if err != nil || moved >= m/2 {
			t.Fatalf("leave moved %d of %d elements — should be ≈ m/n: %v", moved, m, row)
		}
	}

	// E22: every faulty run must keep its semantics, and the lossy
	// profiles must actually inject drops and trigger retransmissions.
	for i, row := range byID["E22"].Rows {
		want := strconv.Itoa(Quick().Repeats)
		if row[2] != want+"/"+want {
			t.Fatalf("fault-tolerance run failed semantics: %v", row)
		}
		if row[1] != "lossless" {
			if row[3] == "0" {
				t.Fatalf("lossy profile injected no drops: %v", row)
			}
			if row[6] == "0" {
				t.Fatalf("drops injected but nothing retried (row %d): %v", i, row)
			}
		}
	}

	// E23/E24: the per-phase breakdowns must name the protocol phases.
	names := map[string]bool{}
	for _, row := range append(byID["E23"].Rows, byID["E24"].Rows...) {
		names[row[0]] = true
	}
	// E24's m = 8n is at most n^{3/2} at every size, so its selection
	// skips phase 1; the answer rides phase 3's sort.
	for _, want := range []string{"skeap:gather", "skeap:dht", "ks:p2-sort", "ks:p2-rank", "ks:p3-sort"} {
		if !names[want] {
			t.Fatalf("phase %q missing from the E23/E24 breakdowns: %v", want, names)
		}
	}

	// E10: Seap's messages must be smaller than Skeap's at high rates.
	rows = byID["E10"].Rows
	last = rows[len(rows)-1]
	bitRatio, err := strconv.ParseFloat(last[3], 64)
	if err != nil || bitRatio <= 1 {
		t.Fatalf("Seap should beat Skeap on message size at high Λ: %v", last)
	}
}

// TestRunFiltered: ID selection preserves registry order, is
// case-insensitive, and rejects unknown IDs.
func TestRunFiltered(t *testing.T) {
	rep, err := RunFiltered(Quick(), nil, []string{"e1", " E-F2 "})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 || rep.Tables[0].ID != "E-F2" || rep.Tables[1].ID != "E1" {
		ids := []string{}
		for _, tab := range rep.Tables {
			ids = append(ids, tab.ID)
		}
		t.Fatalf("filtered run returned %v, want [E-F2 E1]", ids)
	}
	if _, err := RunFiltered(Quick(), nil, []string{"E999"}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// TestSweepTables: E26/E27 must run at CI sizes with verdict columns all
// PASS and clean oracle columns.
func TestSweepTables(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep tables in -short mode")
	}
	rep, err := RunFiltered(Quick(), nil, []string{"E26", "E27"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range rep.Tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("table %s has no rows", tab.ID)
		}
		for _, row := range tab.Rows {
			verdict := row[len(row)-1]
			if verdict != "PASS" {
				t.Fatalf("table %s cell %q verdict %q", tab.ID, row[0], verdict)
			}
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	tab := Table{
		ID:     "EX",
		Title:  "example",
		Claim:  "claimed",
		Header: []string{"a", "b"},
	}
	tab.AddRow(1, 2.5)
	tab.Notef("note %d", 7)
	rep := &Report{Tables: []Table{tab}}
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"### EX — example", "*Paper claim:* claimed", "| a | b |", "| 1 | 2.50 |", "> note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}
