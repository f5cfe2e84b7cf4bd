// Command tracecheck validates a JSONL delivery trace (schema dpq-trace/1,
// as written by the simulators' -trace-jsonl flag): header, field set, seq
// contiguity and round monotonicity. With -metrics it cross-checks the
// trace against the run's -metrics-out document — per-kind counts, the
// engine totals and the per-phase message and bit sums must agree,
// catching accounting drift between the trace exporter and the metrics
// collector.
//
// With -per-node, round monotonicity is checked per sending node instead
// of globally: traces from the network runtime (cmd/dpqd) stamp each
// delivery with the sender's local activation tick, so ticks of different
// processes interleave while each sender's stay ordered.
//
// Usage:
//
//	tracecheck [-metrics run.json] [-per-node] trace.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"dpq/internal/obs"
)

func main() {
	metricsPath := flag.String("metrics", "", "cross-check against this -metrics-out JSON file")
	perNode := flag.Bool("per-node", false, "check round monotonicity per sending node (network-runtime traces)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-metrics run.json] [-per-node] trace.jsonl")
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	defer f.Close()
	sum, err := obs.ValidateTraceOpts(f, obs.TraceOptions{PerNodeRounds: *perNode})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck: invalid trace:", err)
		os.Exit(1)
	}

	fmt.Printf("trace ok: %d deliveries, %d bits, %d kinds (%s)\n",
		sum.Deliveries, sum.TotalBits, len(sum.Kinds), obs.TraceSchema)
	names := make([]string, 0, len(sum.Kinds))
	for k := range sum.Kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-18s %d\n", k, sum.Kinds[k])
	}

	if *metricsPath == "" {
		return
	}
	if err := crossCheck(*metricsPath, sum); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck: metrics mismatch:", err)
		os.Exit(1)
	}
	fmt.Println("metrics cross-check ok: per-kind counts, phase sums and engine totals agree")
}

// crossCheck verifies the trace summary against a -metrics-out document.
func crossCheck(path string, sum *obs.TraceSummary) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Engine struct {
			Messages  int64 `json:"messages"`
			TotalBits int64 `json:"totalBits"`
		} `json:"engine"`
		Kinds map[string]struct {
			Count int64 `json:"count"`
		} `json:"kinds"`
		Phases []struct {
			Messages int64 `json:"messages"`
			Bits     int64 `json:"bits"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if doc.Engine.Messages != sum.Deliveries {
		return fmt.Errorf("engine.messages=%d but trace has %d deliveries", doc.Engine.Messages, sum.Deliveries)
	}
	if doc.Engine.TotalBits != sum.TotalBits {
		return fmt.Errorf("engine.totalBits=%d but trace sums to %d", doc.Engine.TotalBits, sum.TotalBits)
	}
	var phaseMsgs, phaseBits int64
	for _, ph := range doc.Phases {
		phaseMsgs += ph.Messages
		phaseBits += ph.Bits
	}
	if phaseMsgs != doc.Engine.Messages || phaseBits != doc.Engine.TotalBits {
		return fmt.Errorf("phases sum to %d messages, %d bits but engine has %d, %d",
			phaseMsgs, phaseBits, doc.Engine.Messages, doc.Engine.TotalBits)
	}
	for k, ks := range doc.Kinds {
		if ks.Count != sum.Kinds[k] {
			return fmt.Errorf("kind %q: metrics count %d, trace count %d", k, ks.Count, sum.Kinds[k])
		}
	}
	for k, c := range sum.Kinds {
		if _, ok := doc.Kinds[k]; !ok {
			return fmt.Errorf("kind %q (%d deliveries) missing from metrics", k, c)
		}
	}
	return nil
}
