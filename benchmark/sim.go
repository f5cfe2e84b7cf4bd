package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"dpq"
	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/sim"
	"dpq/internal/skeap"
	"dpq/internal/workload"
)

// simSegment is one protocol's share of a simulator workload. A run makes
// rounds; in every round each segment builds a fresh queue and drives one
// batch to completion on it, so that every round does the same kind of
// work whatever the number of rounds. A batch is one workload.Generator
// round: rate seeded 60/40 insert/delete operations at every host. (Hosts
// drawn at random would make the busiest host's load, and with it the
// batch's rounds, a matter of luck.)
type simSegment struct {
	label string // skeap, skeap-parallel, seap, kselect, samplek or batchlocal
	n     int    // hosts
	rate  int    // operations per host per batch
}

// A round takes about 4 s (sim-batch) and 2.5 s (sim-relax) on the
// reference box, so that a run of 20 s makes a handful. The rounds of
// sim-batch cost the same within a few percent whatever the seed; a
// SampleK batch takes anything from 0.7 s to 2.4 s with the operations
// drawn, so sim-relax would need minutes to average that out and is not
// among the workloads the driver gates.
var simWorkloads = map[string][]simSegment{
	"sim-batch": {
		{label: "skeap", n: 4096, rate: 1},
		{label: "seap", n: 2048, rate: 1},
		{label: "kselect", n: 2048},
	},
	"sim-relax": {
		{label: "samplek", n: 4096, rate: 2},
		{label: "batchlocal", n: 4096, rate: 1},
	},
}

// tracedRounds is how many rounds the traced pass makes: fixed work, so
// that its counts repeat exactly.
const tracedRounds = 2

// simSeed is the simulated system's own seed (overlay labels, node PRNGs).
// It is fixed: the workload seed varies only the generated operations.
const simSeed = 1

const (
	skeapPrios = 4
	seapBound  = 1 << 30
)

// simDriver is one simulated queue as a workload drives it.
type simDriver interface {
	insert(host int, priority uint64)
	deleteMin(host int)
	drain() error
	verify() error
	metrics() sim.Metrics
	engine() *sim.SyncEngine
	rankError() dpq.RankStats
}

// facadeDriver drives a queue through the public dpq facade, as a user of
// the library does.
type facadeDriver struct{ pq *dpq.PQ }

func (d facadeDriver) insert(host int, p uint64) { d.pq.At(host).Insert(p, "") }
func (d facadeDriver) deleteMin(host int)        { d.pq.At(host).DeleteMin() }
func (d facadeDriver) drain() error              { _, err := d.pq.Drain(); return err }
func (d facadeDriver) verify() error             { return d.pq.Verify() }
func (d facadeDriver) metrics() sim.Metrics      { return d.pq.Metrics() }
func (d facadeDriver) engine() *sim.SyncEngine   { return d.pq.Engine() }
func (d facadeDriver) rankError() dpq.RankStats  { return d.pq.RankError() }

func (s simSegment) options() (dpq.Protocol, dpq.Options) {
	o := dpq.Options{Nodes: s.n, Seed: simSeed}
	switch s.label {
	case "skeap", "skeap-parallel":
		o.Priorities = skeapPrios
		if s.label == "skeap-parallel" {
			o.Engine, o.Workers = dpq.EngineSyncParallel, 2
		}
		return dpq.Skeap, o
	case "samplek":
		o.Relaxation = dpq.Relaxation{Mode: dpq.RelaxSampleK, K: 2}
	case "batchlocal":
		o.Relaxation = dpq.Relaxation{Mode: dpq.RelaxBatchLocal}
	}
	o.Priorities = seapBound
	return dpq.Seap, o
}

func (s simSegment) facade() (simDriver, error) {
	proto, o := s.options()
	pq, err := dpq.New(proto, o)
	if err != nil {
		return nil, err
	}
	return facadeDriver{pq}, nil
}

// timedDriver drives the same protocols from the constructors the facade
// uses, with every handler wrapped in a clock. It replays the facade's
// execution message for message; the caller checks that.
type timedDriver struct {
	be     relax.Backend
	eng    *sim.SyncEngine
	n      int
	nextID uint64
}

func (s simSegment) timed(clk *handlerClock) *timedDriver {
	_, o := s.options()
	var be relax.Backend
	switch {
	case s.label == "skeap":
		be = relax.WrapSkeap(skeap.New(skeap.Config{N: s.n, P: skeapPrios, Seed: simSeed}))
	case o.Relaxation.Enabled():
		be = relax.New(relax.Config{N: s.n, Seed: simSeed, Mode: o.Relaxation.Mode, K: o.Relaxation.K, PrioBound: seapBound})
	default:
		be = relax.WrapSeap(seap.New(seap.Config{N: s.n, PrioBound: seapBound, Seed: simSeed}))
	}
	groups, group := be.Overlay().Group()
	eng := sim.Build(sim.Spec{Handlers: timeHandlers(be.Handlers(), clk, true), Seed: simSeed + 1, Groups: groups, Group: group}).(*sim.SyncEngine)
	return &timedDriver{be: be, eng: eng, n: s.n}
}

func (d *timedDriver) insert(host int, p uint64) {
	d.nextID++
	d.be.InjectInsert(host, prio.ElemID(d.nextID), p, "")
}
func (d *timedDriver) deleteMin(host int) { d.be.InjectDelete(host) }
func (d *timedDriver) drain() error {
	if !d.eng.RunUntil(d.be.Done, roundBudget(d.n)) {
		return errors.New("timed engine did not complete the batch within its budget")
	}
	return nil
}
func (d *timedDriver) verify() error            { return nil } // the facade pass verified this execution
func (d *timedDriver) metrics() sim.Metrics     { return *d.eng.Metrics() }
func (d *timedDriver) engine() *sim.SyncEngine  { return d.eng }
func (d *timedDriver) rankError() dpq.RankStats { return dpq.RankStats{} }

// roundBudget is the facade's per-batch round budget.
func roundBudget(n int) int { return 20000 * (mathx.Log2Ceil(n) + 3) }

// selectElems generates the KSelect input: 4n elements, uniform priorities.
func selectElems(n int, seed uint64) []dpq.Element {
	rnd := hashutil.NewRand(seed)
	elems := make([]dpq.Element, 4*n)
	for i := range elems {
		elems[i] = dpq.Element{ID: dpq.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64n(uint64(16*n)) + 1)}
	}
	return elems
}

// timedSelect is dpq.Select with clocked handlers.
func timedSelect(n int, elems []dpq.Element, k int64, seed uint64, clk *handlerClock) (kselect.Result, error) {
	ov := ldb.New(n, hashutil.New(seed))
	sel := kselect.New(ov, hashutil.New(seed+1))
	rnd := hashutil.NewRand(seed + 2)
	for _, e := range elems {
		sel.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())), e)
	}
	groups, group := ov.Group()
	eng := sim.Build(sim.Spec{Handlers: timeHandlers(sel.Handlers(), clk, true), Seed: seed + 3, Groups: groups, Group: group}).(*sim.SyncEngine)
	sel.Start(eng.Context(sel.Anchor()), k)
	if !eng.RunUntil(sel.Done, roundBudget(n)) {
		return kselect.Result{}, errors.New("selection did not terminate")
	}
	return sel.Result(), nil
}

// simPass is what one pass over a workload's segments measured.
type simPass struct {
	wall       time.Duration            // issue + drain time over all batches
	bySegment  map[string]time.Duration // the same, per segment label
	perRound   []roundRec
	ops        int
	rounds     int   // simulated rounds of the heap segments: a selection's are not visible through the facade
	msgs       int64 // likewise
	activation int64 // simulated rounds × virtual nodes, summed over batches
	mallocs    uint64
	verify     time.Duration
	rank       []dpq.RankStats
	heapBytes  float64 // heap bytes per virtual node of the first queue after its batch, GC'd
	clk        *handlerClock
}

// roundRec is one round: one batch of every segment.
type roundRec struct {
	wall, cpu time.Duration
	ops       int
}

// selfCPU is the CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSimPass makes rounds for as long as more, given the rounds made and
// the time they took, says so. With timed set the handlers are clocked and
// the execution is not re-verified.
func runSimPass(segs []simSegment, seed uint64, more func(done int, spent time.Duration) bool, timed, gcStats bool) (*simPass, error) {
	p := &simPass{bySegment: map[string]time.Duration{}}
	if timed {
		p.clk = newHandlerClock(clockPeriod)
	}
	for round := 0; more(round, p.wall); round++ {
		var rr roundRec
		for si, s := range segs {
			// Every batch gets the seed of its round and segment.
			bseed := hashutil.Mix2(hashutil.Mix2(seed, uint64(round)), uint64(si))
			var wall, cpu time.Duration
			var ops int
			if s.label == "kselect" {
				elems := selectElems(s.n, bseed)
				runtime.GC()
				cpu0, t0 := selfCPU(), time.Now()
				var res kselect.Result
				var err error
				if timed {
					res, err = timedSelect(s.n, elems, int64(len(elems)/2), simSeed, p.clk)
				} else {
					res, err = dpq.Select(s.n, elems, int64(len(elems)/2), simSeed)
				}
				wall, cpu = time.Since(t0), selfCPU()-cpu0
				if err != nil {
					return nil, err
				}
				// The facade reports no rounds for a selection; the elements it
				// ranks stand in for heap operations.
				ops = len(elems)
				t1 := time.Now()
				if !timed && !selectIsRank(elems, res, len(elems)/2) {
					return nil, fmt.Errorf("kselect returned the wrong element: %+v", res.Elem)
				}
				p.verify += time.Since(t1)
			} else {
				var d simDriver
				if timed {
					d = s.timed(p.clk)
				} else {
					var err error
					if d, err = s.facade(); err != nil {
						return nil, err
					}
				}
				_, o := s.options()
				batch := workload.New(workload.Config{N: s.n, Rate: s.rate, InsertFrac: 0.6, Bound: o.Priorities, Seed: bseed}).Round()
				// The batch starts from a collected heap, so that it does not
				// pay for the garbage of the one before.
				runtime.GC()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				cpu0, t0 := selfCPU(), time.Now()
				for _, op := range batch {
					if op.Kind == workload.OpInsert {
						d.insert(op.Host, op.Prio)
					} else {
						d.deleteMin(op.Host)
					}
				}
				err := d.drain()
				wall, cpu = time.Since(t0), selfCPU()-cpu0
				if err != nil {
					return nil, fmt.Errorf("%s: %w", s.label, err)
				}
				runtime.ReadMemStats(&ms1)
				ops = len(batch)
				met := d.metrics()
				p.mallocs += ms1.Mallocs - ms0.Mallocs
				p.rounds += met.Rounds
				p.msgs += met.Messages
				p.activation += int64(met.Rounds) * int64(d.engine().MemStats(false).Nodes)
				t1 := time.Now()
				if err := d.verify(); err != nil {
					return nil, fmt.Errorf("%s: Verify: %w", s.label, err)
				}
				p.verify += time.Since(t1)
				if !timed && o.Relaxation.Enabled() {
					p.rank = append(p.rank, d.rankError())
				}
				if gcStats && round == 0 && si == 0 {
					p.heapBytes = d.engine().MemStats(true).HeapBytesPerNode()
				}
			}
			p.bySegment[s.label] += wall
			rr.wall += wall
			rr.cpu += cpu
			rr.ops += ops
		}
		p.wall += rr.wall
		p.ops += rr.ops
		p.perRound = append(p.perRound, rr)
	}
	return p, nil
}

// fixedRounds makes exactly n rounds.
func fixedRounds(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done < n }
}

// timedRounds makes rounds for as long as the next one is expected to end
// within budget, and at least two.
func timedRounds(budget time.Duration) func(int, time.Duration) bool {
	return func(done int, spent time.Duration) bool {
		return done < 2 || spent+spent/time.Duration(done) <= budget
	}
}

// selectIsRank checks a selection against a local count: exactly k−1
// elements precede the result in (priority, id) order.
func selectIsRank(elems []dpq.Element, res kselect.Result, k int) bool {
	if !res.Found {
		return false
	}
	before := 0
	for _, e := range elems {
		if e.Prio < res.Elem.Prio || (e.Prio == res.Elem.Prio && e.ID < res.Elem.ID) {
			before++
		}
	}
	return before == k-1
}

// simChildResult is what the child process hands back on standard output.
type simChildResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Attempted int                `json:"attempted"`
	Problems  []string           `json:"problems"`
}

// simSetupRuns is how often a run constructs its queues to time set-up.
const simSetupRuns = 9

// simChild runs a simulator workload in this process and prints its result
// as JSON. It is a process of its own so that peak_rss_mb is the
// workload's, not the benchmark's.
func simChild(name string, seed uint64, seconds float64, traced bool) {
	segs, ok := simWorkloads[name]
	if !ok {
		fatalf("unknown simulator workload %q", name)
	}
	more := timedRounds(seconds2dur(seconds))
	if traced {
		more = fixedRounds(tracedRounds)
	}
	r, p := simRun(name, segs, seed, more, traced)
	if traced && r.correct() {
		simTracedExtras(name, segs, seed, p, r)
	}
	if b, err := procPeakRSS(os.Getpid()); err == nil {
		r.set("peak_rss_mb", float64(b)/(1<<20))
	}
	out := simChildResult{Metrics: r.metrics, Samples: r.samples, Attempted: r.attempted, Problems: r.problems}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatalf("%v", err)
	}
}

// simRun times the workload's set-up, makes the rounds and derives the
// metrics. Like a served run's, throughput and CPU cost are taken per
// window, which here is a round, and summarised over the rounds.
func simRun(name string, segs []simSegment, seed uint64, more func(int, time.Duration) bool, gcStats bool) (*result, *simPass) {
	r := newResult(name)
	var setups sample
	for i := 0; i < simSetupRuns; i++ {
		// A collection that falls into one construction would double it.
		runtime.GC()
		t0 := time.Now()
		for _, s := range segs {
			if s.label == "kselect" {
				selectElems(s.n, seed)
				continue
			}
			if _, err := s.facade(); err != nil {
				fatalf("%v", err)
			}
		}
		setups.add(time.Since(t0).Seconds())
	}
	r.set("setup_s", setups.median())
	r.samples["setup_s"] = simSetupRuns
	runtime.GC()

	p, err := runSimPass(segs, seed, more, false, gcStats)
	if err != nil {
		r.problems = append(r.problems, err.Error())
		r.failed++
		return r, &simPass{}
	}
	r.attempted = p.ops
	for _, rr := range p.perRound {
		r.window("elems_per_s", float64(rr.ops)/rr.wall.Seconds())
		r.window("cpu_us_per_elem", float64(rr.cpu.Microseconds())/float64(rr.ops))
	}
	r.summarise()
	r.samples["elems_per_s"] = len(p.perRound)
	r.set("sim_ops_per_s", r.metrics["elems_per_s"])
	r.set("checker.verify_s", p.verify.Seconds())
	prefix := "sim."
	if name == "sim-relax" {
		prefix = "relax."
	}
	r.set(prefix+"rounds", float64(p.rounds))
	r.set(prefix+"ns_per_activation", float64(p.wall.Nanoseconds())/float64(p.activation))
	r.set(prefix+"allocs_per_round", float64(p.mallocs)/float64(p.rounds))
	if name == "sim-relax" {
		deletes, sum, misses, p99 := 0, 0.0, 0, 0
		for _, rs := range p.rank {
			deletes += rs.Deletes
			sum += rs.Mean * float64(rs.Deletes)
			misses += rs.EmptyMisses
			p99 = max(p99, rs.P99)
		}
		r.set("relax.empty_misses", float64(misses))
		r.set("relax.rank_err_p99", float64(p99))
		if deletes > 0 {
			r.set("rank_err_mean", sum/float64(deletes))
		}
	} else {
		r.set("sim.msgs", float64(p.msgs))
		r.set("sim.rounds_per_s", float64(p.rounds)/p.wall.Seconds())
		for label, d := range p.bySegment {
			r.set("sim."+label+"_s", d.Seconds())
		}
		if gcStats {
			r.set("sim.heap_bytes_per_vnode", p.heapBytes)
		}
	}
	return r, p
}

// simTracedExtras is the traced part of a simulator run: the same
// execution with clocked handlers (handler share, tracing overhead), and
// for sim-batch the worker-pool engine against the serial one.
func simTracedExtras(name string, segs []simSegment, seed uint64, untraced *simPass, r *result) {
	m := r.metrics
	fail := func(format string, args ...any) {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
		r.failed++
	}
	tp, err := runSimPass(segs, seed, fixedRounds(tracedRounds), true, false)
	if err != nil {
		fail("traced pass: %v", err)
		return
	}
	// The traced replay must be the same execution.
	if tp.rounds != untraced.rounds || tp.msgs != untraced.msgs {
		fail("traced replay diverged: %d rounds / %d msgs, untraced %d / %d", tp.rounds, tp.msgs, untraced.rounds, untraced.msgs)
	}
	if tp.wall > 0 {
		m["sim.handler_frac"] = tp.clk.busy().Seconds() / tp.wall.Seconds()
		m["trace_overhead_frac"] = 1 - untraced.wall.Seconds()/tp.wall.Seconds()
	}
	if name != "sim-batch" {
		return
	}
	// Worker-pool engine (2 workers) against the serial engine on two
	// skeap batches.
	var wall [2]time.Duration
	for i, label := range []string{"skeap", "skeap-parallel"} {
		p, err := runSimPass([]simSegment{{label: label, n: 4096, rate: 1}}, seed, fixedRounds(2), false, false)
		if err != nil {
			fail("%s engine: %v", label, err)
			return
		}
		wall[i] = p.wall
	}
	m["sim.par_speedup"] = wall[0].Seconds() / wall[1].Seconds()
}

// runSim runs a simulator workload in a child process.
func runSim(name string, seed uint64, seconds float64, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-child", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("simulator child: %w", err)
	}
	var cr simChildResult
	if err := json.Unmarshal(b, &cr); err != nil {
		return nil, fmt.Errorf("simulator child printed %q: %w", b, err)
	}
	r := newResult(name)
	r.metrics, r.samples = cr.Metrics, cr.Samples
	r.attempted = cr.Attempted
	r.problems = cr.Problems
	r.failed = len(cr.Problems)
	r.set("failed_ops_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	return r, nil
}
