// Package obs is the structured instrumentation layer shared by the
// simulation engines and the network runtime. It turns the engines'
// per-delivery observer callback (sim.Delivery) into
//
//   - per-message-kind counters and bit histograms, keyed by the Kind()
//     the protocol messages expose (sim.KindOf);
//   - a phase timeline: protocols mark transitions with Phase("name") and
//     every subsequent delivery is attributed to that phase, so a run's
//     rounds, messages, bits and congestion decompose over the paper's
//     protocol phases instead of only summing to end-of-run totals;
//   - a JSONL trace exporter with a replay-stable schema (trace.go).
//
// Data flow:
//
//	engine ──func(sim.Delivery)──▶ Collector ──Snapshot──▶ metrics JSON
//	                        └─────▶ TraceWriter ──────────▶ JSONL trace
//
// The Collector is mutex-protected (internal/netrun's run loop observes
// while client goroutines read) and nil-safe on its Phase method, so
// protocols can carry an optional *Collector and call Phase unconditionally.
package obs

import (
	"math/bits"
	"sort"
	"sync"

	"dpq/internal/sim"
)

// HistBuckets is the number of log2 buckets of a histogram: bucket i counts
// values (a message's bit-length, a route's hop count) in [2^i, 2^(i+1));
// bucket 0 also holds 0. 32 buckets cover any realistic message.
const HistBuckets = 32

// KindStats aggregates deliveries of one message kind.
type KindStats struct {
	Count      int64              `json:"count"`
	Bits       int64              `json:"bits"`
	MaxBits    int                `json:"maxBits"`
	Hist       [HistBuckets]int64 `json:"-"`
	FirstRound int                `json:"firstRound"`
	LastRound  int                `json:"lastRound"`
}

// HistNonZero returns the log2 histogram as bucket→count, omitting empty
// buckets (the JSON form).
func (k *KindStats) HistNonZero() map[int]int64 {
	out := map[int]int64{}
	for i, c := range k.Hist {
		if c != 0 {
			out[i] = c
		}
	}
	return out
}

// PhaseStats aggregates the deliveries attributed to one phase name, over
// all of its timeline segments.
type PhaseStats struct {
	Name     string `json:"name"`
	Segments int    `json:"segments"` // how many times the timeline entered this phase
	// ActiveRounds counts rounds in which the phase saw at least one
	// delivery, summed over segments.
	ActiveRounds int   `json:"activeRounds"`
	Messages     int64 `json:"messages"`
	Bits         int64 `json:"bits"`
	// Congestion is the maximum number of deliveries one group received in
	// one round while this phase was active.
	Congestion int `json:"congestion"`
}

// Collector accumulates per-kind and per-phase statistics from a stream of
// deliveries. The zero value is not usable; construct with NewCollector. A
// nil *Collector is safe to call Phase on (no-op), so protocols need no
// nil checks around optional instrumentation.
type Collector struct {
	mu     sync.Mutex
	kinds  map[string]*KindStats
	phases map[string]*PhaseStats
	order  []string // phase names in first-seen order

	cur       *PhaseStats
	curRound  int
	haveRound bool
	loads     map[int]int // per-group deliveries in the current round
}

// NewCollector returns an empty collector. Deliveries observed before the
// first Phase call are attributed to the phase named "-".
func NewCollector() *Collector {
	c := &Collector{
		kinds:  map[string]*KindStats{},
		phases: map[string]*PhaseStats{},
		loads:  map[int]int{},
	}
	c.cur = c.phaseLocked("-")
	return c
}

// phaseLocked returns the aggregate entry for name, creating it on first
// use. Caller holds c.mu (or is the constructor).
func (c *Collector) phaseLocked(name string) *PhaseStats {
	ph, ok := c.phases[name]
	if !ok {
		ph = &PhaseStats{Name: name}
		c.phases[name] = ph
		c.order = append(c.order, name)
	}
	return ph
}

// Phase marks a timeline transition: subsequent deliveries are attributed
// to the named phase. Re-entering the current phase is a no-op; re-entering
// an earlier name resumes its aggregate (a new segment). Nil-safe.
func (c *Collector) Phase(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil && c.cur.Name == name {
		return
	}
	c.cur = c.phaseLocked(name)
	c.cur.Segments++
	// A phase boundary restarts per-round congestion attribution: loads
	// accumulated by the previous phase in this round are its own.
	c.haveRound = false
	clear(c.loads)
}

// Observer returns the engine observer feeding this collector. Nil-safe
// (returns nil so engines skip the callback entirely).
func (c *Collector) Observer() func(sim.Delivery) {
	if c == nil {
		return nil
	}
	return c.observe
}

func (c *Collector) observe(d sim.Delivery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kind := sim.KindOf(d.Msg)
	ks, ok := c.kinds[kind]
	if !ok {
		ks = &KindStats{FirstRound: d.Round}
		c.kinds[kind] = ks
	}
	ks.Count++
	ks.Bits += int64(d.Bits)
	if d.Bits > ks.MaxBits {
		ks.MaxBits = d.Bits
	}
	ks.Hist[Log2Bucket(d.Bits)]++
	ks.LastRound = d.Round

	ph := c.cur
	if ph == nil {
		ph = c.phaseLocked("-")
		c.cur = ph
		ph.Segments++
	}
	if ph.Segments == 0 {
		ph.Segments = 1 // the implicit "-" segment
	}
	if !c.haveRound || d.Round != c.curRound {
		c.curRound = d.Round
		c.haveRound = true
		ph.ActiveRounds++
		clear(c.loads)
	}
	ph.Messages++
	ph.Bits += int64(d.Bits)
	c.loads[d.Group]++
	if l := c.loads[d.Group]; l > ph.Congestion {
		ph.Congestion = l
	}
}

// Log2Bucket maps a non-negative value to its log2 histogram bucket.
func Log2Bucket(b int) int {
	if b <= 0 {
		return 0
	}
	n := bits.Len(uint(b)) - 1
	if n >= HistBuckets {
		n = HistBuckets - 1
	}
	return n
}

// Kinds returns a copy of the per-kind statistics.
func (c *Collector) Kinds() map[string]KindStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]KindStats, len(c.kinds))
	for k, v := range c.kinds {
		out[k] = *v
	}
	return out
}

// KindNames returns the observed kinds, sorted.
func (c *Collector) KindNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.kinds))
	for k := range c.kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Phases returns copies of the per-phase aggregates in first-seen order,
// omitting the implicit "-" phase when it never saw a delivery.
func (c *Collector) Phases() []PhaseStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PhaseStats, 0, len(c.order))
	for _, name := range c.order {
		ph := c.phases[name]
		if name == "-" && ph.Messages == 0 {
			continue
		}
		out = append(out, *ph)
	}
	return out
}

// TotalMessages returns the number of deliveries observed, summed over
// kinds. When the collector saw every engine delivery this equals the
// engine's Metrics.Messages.
func (c *Collector) TotalMessages() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, ks := range c.kinds {
		total += ks.Count
	}
	return total
}

// Multi fans one delivery stream out to several observers, skipping nils.
// It returns nil when every argument is nil, so engines skip the callback.
func Multi(fns ...func(sim.Delivery)) func(sim.Delivery) {
	live := fns[:0:0]
	for _, f := range fns {
		if f != nil {
			live = append(live, f)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(d sim.Delivery) {
		for _, f := range live {
			f(d)
		}
	}
}
