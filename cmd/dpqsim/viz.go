package main

// Round timelines: a per-round tally of delivered message types,
// compressed into spans of identical composition. The phases mode renders
// one to make the paper's phases visible; tests use it to assert the
// *structure* of an execution (e.g. "tree traffic strictly precedes DHT
// traffic in a Skeap batch").

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dpq/internal/sim"
)

// Timeline accumulates per-round message tallies.
type Timeline struct {
	perRound map[int]map[string]int
	rounds   int
}

// NewTimeline creates an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{perRound: map[int]map[string]int{}}
}

// Observer returns an engine observer feeding this timeline.
func (tl *Timeline) Observer() func(sim.Delivery) {
	return func(d sim.Delivery) {
		t, ok := tl.perRound[d.Round]
		if !ok {
			t = map[string]int{}
			tl.perRound[d.Round] = t
		}
		t[sim.KindOf(d.Msg)]++
		if d.Round > tl.rounds {
			tl.rounds = d.Round
		}
	}
}

// Count returns how many messages of the given type were delivered.
func (tl *Timeline) Count(typeName string) int {
	total := 0
	for _, t := range tl.perRound {
		total += t[typeName]
	}
	return total
}

// FirstRound returns the first round a message of the given type was
// delivered, or 0 when none was.
func (tl *Timeline) FirstRound(typeName string) int {
	first := 0
	for r, t := range tl.perRound {
		if t[typeName] > 0 && (first == 0 || r < first) {
			first = r
		}
	}
	return first
}

// LastRound returns the last round a message of the given type was
// delivered, or 0 when none was.
func (tl *Timeline) LastRound(typeName string) int {
	last := 0
	for r, t := range tl.perRound {
		if t[typeName] > 0 && r > last {
			last = r
		}
	}
	return last
}

// Span is a maximal run of rounds with identical message composition.
type Span struct {
	From, To int
	Kinds    string // "type×count" pairs, sorted, space-separated
}

// Spans compresses the timeline into spans.
func (tl *Timeline) Spans() []Span {
	var out []Span
	var lastKinds string
	spanStart := 1
	flush := func(from, to int, kinds string) {
		if kinds != "" {
			out = append(out, Span{From: from, To: to, Kinds: kinds})
		}
	}
	for r := 1; r <= tl.rounds; r++ {
		t := tl.perRound[r]
		var names []string
		for k := range t {
			names = append(names, k)
		}
		sort.Strings(names)
		var parts []string
		for _, k := range names {
			parts = append(parts, fmt.Sprintf("%s×%d", k, t[k]))
		}
		kinds := strings.Join(parts, "  ")
		if kinds != lastKinds {
			if lastKinds != "" {
				flush(spanStart, r-1, lastKinds)
			}
			spanStart = r
			lastKinds = kinds
		}
	}
	flush(spanStart, tl.rounds, lastKinds)
	return out
}

// Render writes the spans to w, one line each.
func (tl *Timeline) Render(w io.Writer) {
	for _, s := range tl.Spans() {
		fmt.Fprintf(w, "rounds %4d–%-4d  %s\n", s.From, s.To, s.Kinds)
	}
}
