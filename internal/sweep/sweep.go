// Package sweep is the parameterized workload-sweep engine behind
// cmd/dpqsweep and experiments E26/E27: it runs Skeap, Seap and KSelect
// across a configuration matrix — Zipf-skewed priorities with tunable
// exponent, hot-host contention, phase-shifting load and burst/drain
// cycles — and pairs every measurement with the analytical twin of
// twin.go, which computes the paper's predicted round/congestion/bit
// envelopes (Thm 3.2, Thm 4.2, Thm 5.1) for the same configuration and
// emits a per-cell PASS/DIVERGED verdict.
//
// Every heap cell's delivery stream is additionally replayed against the
// sequential oracle (internal/semantics over internal/seqheap), so a
// skewed or bursty workload that silently broke sequential consistency
// would fail its cell even if it stayed inside the cost envelopes.
// KSelect cells check the selected element against a local sort of the
// loaded candidates — the same oracle, collapsed to one DeleteMin^k.
package sweep

import (
	"fmt"
	"sort"
	"time"

	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/workload"
)

// Protocols the sweep can drive.
const (
	ProtoSkeap   = "skeap"
	ProtoSeap    = "seap"
	ProtoKSelect = "kselect"
)

// skeapP is the constant priority-class count Skeap cells fold the
// workload's priority universe into (the paper's constant c = |𝒫|).
const skeapP = 8

// Cell is one sweep configuration: a protocol, a network size, and the
// workload-shape knobs. The zero knobs reproduce the uniform/steady
// setting of the pre-sweep experiments.
type Cell struct {
	Proto      string  `json:"proto"`
	N          int     `json:"n"`
	Rate       int     `json:"rate"` // Λ: max ops per node per round
	InsertFrac float64 `json:"insertFrac"`
	Dist       string  `json:"dist"` // uniform | zipf | asc | desc
	ZipfS      float64 `json:"zipfS,omitempty"`
	Pattern    string  `json:"pattern"` // steady | bursty | hotspot | phaseshift | burstdrain
	HotFrac    float64 `json:"hotFrac,omitempty"`
	BurstLen   int     `json:"burstLen,omitempty"`
	Rounds     int     `json:"rounds"` // injection horizon (heap cells)
	Bound      uint64  `json:"bound"`  // priority universe |𝒫|
	Seed       uint64  `json:"seed"`
	// Relax selects a relaxed-DeleteMin engine for the cell ("" or
	// "strict" = the exact protocol; "samplek" | "batchlocal"). A relaxed
	// cell is judged on relaxed validity plus its measured rank error, not
	// on strict oracle order.
	Relax      string `json:"relax,omitempty"`
	RelaxK     int    `json:"relaxK,omitempty"`
	RelaxBatch int    `json:"relaxBatch,omitempty"`
}

// relaxation maps the cell's relax knobs to validated relax.Options.
func (c Cell) relaxation() (relax.Options, error) {
	m, err := relax.ParseMode(c.Relax)
	if err != nil {
		return relax.Options{}, err
	}
	o := relax.Options{Mode: m, K: c.RelaxK, Batch: c.RelaxBatch}
	if err := o.Validate(); err != nil {
		return relax.Options{}, err
	}
	return o, nil
}

// Label is the cell's short human-readable identity for tables and logs.
func (c Cell) Label() string {
	s := fmt.Sprintf("%s n=%d Λ=%d %s/%s", c.Proto, c.N, c.Rate, c.Dist, c.Pattern)
	if c.Dist == "zipf" && c.ZipfS != 0 {
		s += fmt.Sprintf(" s=%.1f", c.ZipfS)
	}
	if c.Pattern == "hotspot" && c.HotFrac != 0 {
		s += fmt.Sprintf(" hot=%.2f", c.HotFrac)
	}
	if o, err := c.relaxation(); err == nil && o.Enabled() {
		s += " " + o.String()
	}
	return s
}

// dist maps the cell's distribution name to the workload constant.
func (c Cell) dist() (workload.PrioDist, error) {
	for _, d := range []workload.PrioDist{workload.Uniform, workload.Zipf, workload.Ascending, workload.Descending} {
		if d.String() == c.Dist {
			return d, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown dist %q", c.Dist)
}

// pattern maps the cell's pattern name to the workload constant.
func (c Cell) pattern() (workload.Pattern, error) {
	for _, p := range []workload.Pattern{workload.Steady, workload.Bursty, workload.Hotspot, workload.PhaseShift, workload.BurstDrain} {
		if p.String() == c.Pattern {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown pattern %q", c.Pattern)
}

// workloadConfig builds the generator configuration for a heap cell.
func (c Cell) workloadConfig() (workload.Config, error) {
	d, err := c.dist()
	if err != nil {
		return workload.Config{}, err
	}
	p, err := c.pattern()
	if err != nil {
		return workload.Config{}, err
	}
	return workload.Config{
		N: c.N, Rate: c.Rate, InsertFrac: c.InsertFrac,
		Dist: d, Bound: c.Bound, Pattern: p, BurstLen: c.BurstLen,
		Seed: c.Seed, ZipfS: c.ZipfS, HotFrac: c.HotFrac,
	}, nil
}

// Measured is the cost of one executed cell, in the units of the paper's
// three cost measures plus wall clock.
type Measured struct {
	Rounds         int     `json:"rounds"`  // total rounds incl. drain
	Batches        int     `json:"batches"` // iterations (Skeap), cycles (Seap), 1 (KSelect)
	RoundsPerBatch float64 `json:"roundsPerBatch"`
	Messages       int64   `json:"messages"`
	Congestion     int     `json:"congestion"`
	MaxMessageBits int     `json:"maxMessageBits"`
	TotalBits      int64   `json:"totalBits"`
	Ops            int     `json:"ops"` // operations driven through the cell
	WallNs         int64   `json:"wallNs"`
	// Rank-error histogram of the cell's deliveries (relaxed cells; strict
	// cells are exact by construction and omit the fields). See
	// obs.RankStats.
	RankMax     int     `json:"rankMax,omitempty"`
	RankMean    float64 `json:"rankMean,omitempty"`
	RankP99     int     `json:"rankP99,omitempty"`
	EmptyMisses int     `json:"emptyMisses,omitempty"`
}

// Conformance is the oracle-replay outcome of a cell.
type Conformance struct {
	OK         bool   `json:"ok"`
	Violations int    `json:"violations"`
	Detail     string `json:"detail,omitempty"`
}

// Result is one executed cell with its twin verdict.
type Result struct {
	Cell      Cell        `json:"cell"`
	Measured  Measured    `json:"measured"`
	Predicted Envelope    `json:"predicted"`
	Verdict   string      `json:"verdict"` // "PASS" | "DIVERGED"
	Diverged  []string    `json:"diverged,omitempty"`
	Conform   Conformance `json:"conformance"`
}

// Pass reports whether the cell stayed inside the twin envelopes AND its
// delivery stream conformed to the sequential oracle.
func (r *Result) Pass() bool { return r.Verdict == VerdictPass && r.Conform.OK }

// maxRounds is the drain budget, matching the harness convention.
func maxRounds(n int) int { return 20000 * (mathx.Log2Ceil(n) + 3) }

// RunCell executes one cell on the synchronous engine and verdicts it
// against tw.
func RunCell(c Cell, tw *Twin) (Result, error) {
	if c.Bound == 0 {
		// Default the priority universe: Skeap folds into its constant
		// class count, the arbitrary-priority protocols get the matrix's
		// standard universe.
		c.Bound = 4096
		if c.Proto == ProtoSkeap {
			c.Bound = skeapP
		}
	}
	var (
		m    Measured
		conf Conformance
		err  error
	)
	switch c.Proto {
	case ProtoSkeap, ProtoSeap:
		m, conf, err = runHeapCell(c)
	case ProtoKSelect:
		if o, rerr := c.relaxation(); rerr != nil {
			return Result{}, rerr
		} else if o.Enabled() {
			return Result{}, fmt.Errorf("sweep: relaxation applies to heap cells only (got proto %q)", c.Proto)
		}
		m, conf, err = runKSelectCell(c)
	default:
		return Result{}, fmt.Errorf("sweep: unknown proto %q", c.Proto)
	}
	if err != nil {
		return Result{}, err
	}
	res := Result{Cell: c, Measured: m, Conform: conf}
	res.Predicted, res.Diverged = tw.Check(c, m)
	res.Verdict = VerdictPass
	if len(res.Diverged) > 0 {
		res.Verdict = VerdictDiverged
	}
	return res, nil
}

// runHeapCell drives a Skeap or Seap network under the cell's workload
// for the injection horizon, drains it, and replays the trace against the
// sequential oracle.
func runHeapCell(c Cell) (Measured, Conformance, error) {
	cfg, err := c.workloadConfig()
	if err != nil {
		return Measured{}, Conformance{}, err
	}
	gen := workload.New(cfg)

	rx, err := c.relaxation()
	if err != nil {
		return Measured{}, Conformance{}, err
	}

	// Skeap cells, strict or relaxed, fold the workload's priority universe
	// into the constant class count the protocol requires.
	fold := c.Bound
	if c.Proto == ProtoSkeap {
		fold = skeapP
	}
	var be relax.Backend
	if rx.Enabled() {
		// A relaxed cell runs the relaxation engine over per-host heaps.
		// Its Check is relaxed validity, with the rank error measured
		// below — NOT strict oracle order, which a relaxed delivery stream
		// legitimately violates (it would read as a spurious DIVERGED).
		be = relax.New(relax.Config{N: c.N, Seed: c.Seed + 1,
			Mode: rx.Mode, K: rx.K, Batch: rx.Batch, PrioBound: c.Bound})
	} else if be, _, err = relax.NewStrict(c.Proto, c.N, skeapP, c.Bound, c.Seed+1); err != nil {
		return Measured{}, Conformance{}, err
	}
	eng := sim.Build(be.Spec(sim.KindSync)).(*sim.SyncEngine)

	ops := 0
	start := time.Now()
	for r := 0; r < c.Rounds; r++ {
		for _, op := range gen.Round() {
			if op.Kind == workload.OpInsert {
				be.InjectInsert(op.Host, op.ID, (op.Prio-1)%fold+1, "")
			} else {
				be.InjectDelete(op.Host)
			}
			ops++
		}
		eng.Step()
	}
	if !eng.RunUntil(be.Done, maxRounds(c.N)) {
		return Measured{}, Conformance{}, fmt.Errorf("sweep: %s did not drain within the round budget", c.Label())
	}
	wall := time.Since(start)

	m := measure(eng.Metrics(), be.Batches(), ops, wall)
	if rx.Enabled() {
		st := obs.TraceRankError(be.Trace())
		m.RankMax, m.RankMean, m.RankP99, m.EmptyMisses = st.Max, st.Mean, st.P99, st.EmptyMisses
	}
	return m, conformance(be.Check()), nil
}

// runKSelectCell runs one standalone selection over m = 16n elements
// whose priorities follow the cell's distribution, and checks the result
// against a local sort of the loaded candidates.
func runKSelectCell(c Cell) (Measured, Conformance, error) {
	cfg, err := c.workloadConfig()
	if err != nil {
		return Measured{}, Conformance{}, err
	}
	cfg.Rate, cfg.Pattern = 1, workload.Steady // only the priority stream is used
	gen := workload.New(cfg)

	ov := ldb.New(c.N, hashutil.New(c.Seed))
	sel := kselect.New(ov, hashutil.New(c.Seed+1))
	m := 16 * c.N
	rnd := hashutil.NewRand(c.Seed + 2)
	elems := make([]prio.Element, m)
	for i := 0; i < m; i++ {
		e := prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(gen.Priority())}
		elems[i] = e
		sel.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())), e)
	}
	k := int64(m / 2)

	eng := sel.NewSyncEngine(c.Seed + 3)
	start := time.Now()
	sel.Start(eng.Context(sel.Anchor()), k)
	if !eng.RunUntil(sel.Done, maxRounds(c.N)) {
		return Measured{}, Conformance{}, fmt.Errorf("sweep: %s did not complete within the round budget", c.Label())
	}
	wall := time.Since(start)

	met := eng.Metrics()
	meas := measure(met, 1, m, wall)

	sort.Slice(elems, func(i, j int) bool { return elems[i].Less(elems[j]) })
	want := elems[k-1]
	res := sel.Result()
	conf := Conformance{OK: true}
	if !res.Found || res.Elem != want {
		conf = Conformance{OK: false, Violations: 1,
			Detail: fmt.Sprintf("selected %v (found=%v), local sort says rank-%d element is %v", res.Elem, res.Found, k, want)}
	}
	return meas, conf, nil
}

// measure converts engine metrics into the cell's Measured record.
func measure(met *sim.Metrics, batches, ops int, wall time.Duration) Measured {
	m := Measured{
		Rounds:         met.Rounds,
		Batches:        batches,
		Messages:       met.Messages,
		Congestion:     met.Congestion,
		MaxMessageBits: met.MaxMessageBit,
		TotalBits:      met.TotalBits,
		Ops:            ops,
		WallNs:         wall.Nanoseconds(),
	}
	if batches > 0 {
		m.RoundsPerBatch = float64(met.Rounds) / float64(batches)
	} else {
		m.RoundsPerBatch = float64(met.Rounds)
	}
	return m
}

// conformance converts a semantics report into the cell's record.
func conformance(rep *semantics.Report) Conformance {
	c := Conformance{OK: rep.Ok(), Violations: len(rep.Violations)}
	if !c.OK {
		c.Detail = rep.Violations[0]
		if len(rep.Violations) > 1 {
			c.Detail += fmt.Sprintf(" (+%d more)", len(rep.Violations)-1)
		}
	}
	return c
}
