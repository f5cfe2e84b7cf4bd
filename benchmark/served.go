package main

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"
)

// env is where a run builds, scratches and reports.
type env struct {
	dpqd string // built daemon binary
	tmp  string // scratch root for WAL directories
	out  string // trace output directory
}

// result is what one pass of one workload measured.
type result struct {
	workload string
	metrics  map[string]float64
	samples  map[string]int // sample count behind a timing metric
	// windows holds, for a metric taken per window, every window's reading;
	// summarise folds them into metrics.
	windows   map[string][]float64
	attempted int
	failed    int // failed operations plus checker violations
	problems  []string
	// warnings question a measurement without questioning the outputs: they
	// are printed, and leave the verdict alone.
	warnings []string
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]float64{}, samples: map[string]int{}, windows: map[string][]float64{}}
}

func (r *result) window(name string, v float64) { r.windows[name] = append(r.windows[name], v) }

// summarise sets every windowed metric to the median of its windows.
func (r *result) summarise() {
	for name, v := range r.windows {
		s := sample{v: append([]float64(nil), v...)}
		r.set(name, s.median())
	}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// servedSpec is a served workload: a cluster shape and how it is loaded.
type servedSpec struct {
	name    string
	cluster clusterSpec
	conns   int // generator connections, spread over the daemons
	window  int
	prefill int
	prios   uint64
	// openRate is the open loop's offered load in elements per second;
	// 0 selects the closed loop.
	openRate float64
	// workPerSecond sizes a fixed-work workload: elements per second of
	// nominal run length; 0 means the workload is timed, not counted.
	workPerSecond int
	restart       bool
}

var servedSpecs = map[string]servedSpec{
	"cluster-sat": {
		name:    "cluster-sat",
		cluster: clusterSpec{procs: 2, hosts: 4, prios: 4, proto: "skeap", wal: true},
		conns:   2, window: 256, prefill: 4000, prios: 4,
	},
	"cluster-open": {
		name:    "cluster-open",
		cluster: clusterSpec{procs: 2, hosts: 4, prios: 4, proto: "skeap", wal: true},
		conns:   2, window: 256, prefill: 2000, prios: 4, openRate: 1500,
	},
	"single-sat": {
		name:    "single-sat",
		cluster: clusterSpec{procs: 1, hosts: 8, prios: 4, proto: "skeap"},
		conns:   2, window: 256, prefill: 4000, prios: 4,
	},
	"cluster-restart": {
		name:    "cluster-restart",
		cluster: clusterSpec{procs: 2, hosts: 4, prios: 4, proto: "skeap", wal: true},
		conns:   2, window: 256, prios: 4, workPerSecond: 4000, restart: true,
	},
	"seap-serve": {
		name:    "seap-serve",
		cluster: clusterSpec{procs: 1, hosts: 8, prios: 1 << 20, proto: "seap"},
		conns:   2, window: 64, prefill: 100, prios: 1 << 20, workPerSecond: 75,
	},
}

// openLag is how long after its insert an element's delete is scheduled in
// the open loop: long enough that the insert has been answered.
const openLag = 50 * time.Millisecond

// lateLimitMs is the generator lateness (p99, ms) above which an open-loop
// run's latencies are not to be trusted: one tick.
const lateLimitMs = 1.0

// openTail is how long the open-loop schedule runs on past the measured
// span: longer than the benchmark is ever woken late on a busy host.
const openTail = time.Second

func (s servedSpec) addrs(c *cluster) []string {
	out := make([]string, s.conns)
	for i := range out {
		out[i] = c.clientAddrs[i%len(c.clientAddrs)]
	}
	return out
}

// setup boots a cluster, waits until it may be loaded, connects the
// generator and prefills the queue; it returns how long that took.
func (s servedSpec) setup(e env, seed uint64) (*cluster, *generator, time.Duration, error) {
	c, err := newCluster(s.cluster, e.dpqd, e.tmp)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	if err := c.start(); err != nil {
		c.destroy()
		return nil, nil, 0, err
	}
	if err := c.waitReady(30 * time.Second); err != nil {
		c.destroy()
		return nil, nil, 0, err
	}
	g, err := newGenerator(s.addrs(c), s.prios, seed)
	if err != nil {
		c.destroy()
		return nil, nil, 0, err
	}
	per := s.prefill / len(g.conns)
	if err := g.each(func(gc *gconn) error { return gc.insertN(per, s.window) }); err != nil {
		g.close()
		c.destroy()
		return nil, nil, 0, fmt.Errorf("prefill: %w", err)
	}
	return c, g, time.Since(t0), nil
}

// warmup is the unmeasured head of a timed load: long enough for the
// window to fill and the daemons' heaps to reach their working size.
const warmup = time.Second

// windowLen is the length of one window of a timed load.
const windowLen = time.Second

// load is what the generator did to one cluster and what it cost.
type load struct {
	conns []*gconn // every connection used, in order of use
	hist  history
	// marks cut the measured span into windows: the first is its start, the
	// last its end. A timed load marks every windowLen, fixed work only the
	// two edges.
	marks []mark
	rss   int64 // daemons' summed peak resident set, bytes
	elems int   // fixed work done in the span; 0: count the acks
	// atStart and atEnd, when set, run at the edges of the measured span.
	atStart, atEnd func()
}

// mark is one window boundary: when it fell, since the generator's epoch,
// and the CPU time the system under load had consumed by then.
type mark struct{ at, cpu time.Duration }

func (l *load) mStart() time.Duration { return l.marks[0].at }
func (l *load) mEnd() time.Duration   { return l.marks[len(l.marks)-1].at }

// cpuMeter reads the CPU time the system under load has consumed.
type cpuMeter interface {
	cpu() (time.Duration, error)
}

// begin and end mark the edges of the measured span, mark a window
// boundary inside it.
func (l *load) begin(g *generator, m cpuMeter) error {
	if l.atStart != nil {
		l.atStart()
	}
	return l.mark(g, m)
}

func (l *load) mark(g *generator, m cpuMeter) error {
	cpu, err := m.cpu()
	l.marks = append(l.marks, mark{at: time.Since(g.epoch), cpu: cpu})
	return err
}

func (l *load) end(g *generator, m cpuMeter) error {
	err := l.mark(g, m)
	if l.atEnd != nil {
		l.atEnd()
	}
	return err
}

// cheapSetups is the time within which a run repeats its set-up, up to
// maxSetups times, to report the median: a set-up that takes a tenth of a
// second swings by a quarter from one boot to the next, one that waits out
// the two-second cold start of a -wal cluster does not and is made once.
const (
	cheapSetups = time.Second
	maxSetups   = 5
)

// runServed runs one untraced pass of a served workload on real daemons:
// boot, prefill, load, drain, check, shut down.
func runServed(s servedSpec, e env, seed uint64, seconds float64) (*result, error) {
	var setups sample
	var c *cluster
	var g *generator
	for spent := time.Duration(0); ; {
		var d time.Duration
		var err error
		if c, g, d, err = s.setup(e, seed); err != nil {
			return nil, err
		}
		setups.add(d.Seconds())
		if spent += d; setups.n() == maxSetups || spent >= cheapSetups {
			break
		}
		g.close()
		c.destroy()
	}
	// The restart workload swaps the generator; the cluster stays.
	defer c.destroy()
	defer func() { g.close() }()
	r := newResult(s.name)
	r.set("setup_s", setups.median())
	r.samples["setup_s"] = setups.n()

	var l load
	var err error
	timed := !s.restart && s.workPerSecond == 0
	if timed {
		// A timed load handles as many elements as the daemons manage, and
		// their memory grows with every element handled (see README, known
		// defects), so the peak by the end of the load would reward a slower
		// daemon. The peak by the end of set-up is the same work every time.
		if l.rss, err = c.peakRSS(); err != nil {
			return nil, err
		}
	}
	switch {
	case s.restart:
		g, err = s.restartWork(c, g, &l, r, seed, seconds)
	case s.workPerSecond > 0:
		err = s.fixedWork(c, g, &l, seconds)
	default:
		err = s.timedLoad(c, g, &l, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	if l.hist.drained, err = g.conns[0].probeEmpty(); err != nil {
		return nil, fmt.Errorf("drain probe: %w", err)
	}
	if !timed {
		rss, err := c.peakRSS()
		if err != nil {
			return nil, err
		}
		l.rss = max(l.rss, rss)
	}
	l.conns = append(l.conns, g.conns...)
	for _, gc := range g.conns {
		l.hist.add(gc)
	}
	addLoadMetrics(r, &l, s.openRate > 0)
	summaries, logs := c.stop()
	for _, line := range summaries {
		addDaemonSummary(r, line)
	}
	if !r.correct() {
		fmt.Fprintf(os.Stderr, "daemon logs of the incorrect run:\n%s", logs)
	}
	return r, nil
}

func seconds2dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// timedLoad runs the closed-loop mix or the open-loop schedule for a
// warm-up plus the measured window, then drains the queue.
func (s servedSpec) timedLoad(c cpuMeter, g *generator, l *load, seed uint64, seconds float64) error {
	warm := warmup
	done := make(chan error, 1)
	if s.openRate > 0 {
		start := time.Now().Add(20 * time.Millisecond)
		go func() {
			done <- g.each(func(gc *gconn) error {
				// The schedule outlasts the measured window, so that the
				// window closes under load.
				evs := openSchedule(seed*7919+uint64(gc.idx), s.openRate/float64(len(g.conns)), warm+seconds2dur(seconds)+openTail, openLag)
				return gc.open(start, evs)
			})
		}()
		time.Sleep(time.Until(start.Add(warm)))
	} else {
		go func() { done <- g.each(func(gc *gconn) error { return gc.mix(s.window) }) }()
		time.Sleep(warm)
	}
	if err := l.begin(g, c); err != nil {
		return err
	}
	// Window edges are due at fixed instants, so that a late wake-up
	// shortens the next window instead of lengthening the span.
	t0 := time.Now()
	for i, n := 1, max(1, int(seconds2dur(seconds)/windowLen)); i <= n; i++ {
		select {
		case err := <-done:
			if err == nil {
				err = fmt.Errorf("load ended before the measured span did")
			}
			return err
		case <-time.After(time.Until(t0.Add(time.Duration(i) * windowLen))):
		}
		var err error
		if i < n {
			err = l.mark(g, c)
		} else {
			err = l.end(g, c)
		}
		if err != nil {
			return err
		}
	}
	g.stop.Store(true)
	if err := <-done; err != nil {
		return err
	}
	if err := g.each(func(gc *gconn) error { return gc.consume(s.window, -1) }); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// fixedWork inserts a fixed number of elements, then deletes and acks them
// all; the window is the time that takes.
func (s servedSpec) fixedWork(c cpuMeter, g *generator, l *load, seconds float64) error {
	per := int(float64(s.workPerSecond)*seconds) / len(g.conns)
	if err := l.begin(g, c); err != nil {
		return err
	}
	if err := g.each(func(gc *gconn) error { return gc.insertN(per, s.window) }); err != nil {
		return err
	}
	if err := g.each(func(gc *gconn) error { return gc.consume(s.window, -1) }); err != nil {
		return err
	}
	l.elems = per * len(g.conns)
	return l.end(g, c)
}

// restartWork is the fixed work of cluster-restart: insert acked-durable
// elements, consume and ack a fifth of them, SIGKILL every daemon, restart
// the cluster from its WAL directories and drain it. It returns the
// generator connected to the restarted cluster.
func (s servedSpec) restartWork(c *cluster, g *generator, l *load, r *result, seed uint64, seconds float64) (*generator, error) {
	per := int(float64(s.workPerSecond)*seconds) / len(g.conns)
	if err := l.begin(g, c); err != nil {
		return g, err
	}
	if err := g.each(func(gc *gconn) error { return gc.insertN(per, s.window) }); err != nil {
		return g, err
	}
	if err := g.each(func(gc *gconn) error { return gc.consume(s.window, per/5) }); err != nil {
		return g, err
	}
	cpu1, err := c.cpu()
	if err != nil {
		return g, err
	}
	if l.rss, err = c.peakRSS(); err != nil {
		return g, err
	}
	l.conns = append(l.conns, g.conns...)
	for _, gc := range g.conns {
		l.hist.add(gc)
	}
	l.hist.crashAt = len(g.conns)
	c.kill()
	g.close()

	execAt := time.Since(g.epoch)
	if err := c.start(); err != nil {
		return g, err
	}
	if err := c.waitReady(30 * time.Second); err != nil {
		return g, err
	}
	g2, err := newGenerator(s.addrs(c), s.prios, seed+1)
	if err != nil {
		return g, err
	}
	// The second generator continues the first's clock and queue count, so
	// that both phases fall into one measured window.
	g2.epoch = g.epoch
	g2.avail.Store(g.avail.Load())
	if err := g2.each(func(gc *gconn) error { return gc.consume(s.window, -1) }); err != nil {
		return g2, fmt.Errorf("drain after restart: %w", err)
	}
	end := time.Since(g.epoch)
	first := end
	for _, gc := range g2.conns {
		for _, rec := range gc.recs {
			if rec.op == opDelete && rec.recv < first {
				first = rec.recv
			}
		}
	}
	r.set("recovery_s", (first - execAt).Seconds())
	cpu2, err := c.cpu()
	if err != nil {
		return g2, err
	}
	// The second incarnation's CPU clock started at its exec.
	l.marks = append(l.marks, mark{at: end, cpu: cpu1 + cpu2})
	l.elems = per * len(g.conns)
	return g2, nil
}

// windowed are the metrics a served run takes per window.
var windowed = []string{"elems_per_s", "insert_p50_ms", "delete_p50_ms", "client.ack_p50_ms", "cpu_us_per_elem"}

// addLoadMetrics turns the generator's records into metrics. Throughput,
// median latencies and CPU cost are taken per window (r.windows) and
// summarised over the windows; tail latencies, which need every sample,
// are taken over the whole span.
func addLoadMetrics(r *result, l *load, open bool) {
	nw := len(l.marks) - 1
	lat := make([][numOps]sample, nw)
	var all [numOps]sample
	var late sample
	for _, gc := range l.conns {
		r.attempted += gc.attempted
		r.failed += gc.failed
		for _, rec := range gc.recs {
			if rec.recv < l.mStart() || rec.recv >= l.mEnd() {
				continue
			}
			// The window whose end is the first mark after the response.
			w := sort.Search(nw, func(i int) bool { return l.marks[i+1].at > rec.recv })
			ms := float64(rec.lat) / float64(time.Millisecond)
			lat[w][rec.op].add(ms)
			all[rec.op].add(ms)
		}
		for _, d := range gc.late {
			late.add(float64(d) / float64(time.Millisecond))
		}
	}
	for w := 0; w < nw; w++ {
		elems := l.elems
		if elems == 0 {
			elems = lat[w][opAck].n()
		}
		r.window("elems_per_s", float64(elems)/(l.marks[w+1].at-l.marks[w].at).Seconds())
		r.window("insert_p50_ms", lat[w][opInsert].median())
		r.window("delete_p50_ms", lat[w][opDelete].median())
		r.window("client.ack_p50_ms", lat[w][opAck].median())
		if elems > 0 {
			r.window("cpu_us_per_elem", float64((l.marks[w+1].cpu-l.marks[w].cpu).Microseconds())/float64(elems))
		}
	}
	r.summarise()
	r.samples["insert_p50_ms"] = all[opInsert].n()
	r.samples["delete_p50_ms"] = all[opDelete].n()
	r.samples["client.ack_p50_ms"] = all[opAck].n()
	if supports(all[opInsert].n(), 0.99) {
		r.set("client.insert_p99_ms", all[opInsert].quantile(0.99))
		r.samples["client.insert_p99_ms"] = all[opInsert].n()
	}
	if supports(all[opDelete].n(), 0.99) {
		r.set("client.delete_p99_ms", all[opDelete].quantile(0.99))
		r.samples["client.delete_p99_ms"] = all[opDelete].n()
	}
	r.set("peak_rss_mb", float64(l.rss)/(1<<20))
	if open {
		r.set("gen.late_p99_ms", late.quantile(0.99))
		r.samples["gen.late_p99_ms"] = late.n()
		if late.quantile(0.99) > lateLimitMs {
			r.warnings = append(r.warnings, fmt.Sprintf("open-loop generator ran late: p99 %.3f ms > %v ms, this run's latencies are invalid", late.quantile(0.99), lateLimitMs))
		}
	}
	violations, msgs := l.hist.check()
	r.failed += violations
	r.problems = append(r.problems, msgs...)
	if r.attempted > 0 {
		r.set("failed_ops_frac", float64(r.failed)/float64(r.attempted))
	}
}

var summaryRE = regexp.MustCompile(`(\d+) leases, \d+ acked, (\d+) redelivered.* drained=(\w+)`)

// addDaemonSummary folds one daemon's shutdown line into the per-layer
// counters that need no tracing.
func addDaemonSummary(r *result, line string) {
	m := summaryRE.FindStringSubmatch(line)
	if m == nil {
		r.problems = append(r.problems, fmt.Sprintf("daemon exited without a summary line (%q)", line))
		return
	}
	num := func(s string) float64 { v, _ := strconv.ParseFloat(s, 64); return v }
	r.metrics["serve.leases_granted"] += num(m[1])
	r.metrics["serve.redeliveries"] += num(m[2])
	if m[3] != "true" {
		r.problems = append(r.problems, "daemon did not drain at shutdown: "+line)
	}
}
