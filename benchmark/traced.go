package main

import (
	"fmt"
	"time"

	"dpq/internal/serve"
	"dpq/internal/sim"
)

// runTraced is the per-layer pass of a served workload. A third of the
// time goes to the untraced in-process replica of the cluster, a third to
// the same replica with every seam traced, and a third to the layer
// micro-passes of the layers the workload uses. cluster-restart has no
// replica: recovery is the point, so it runs on real daemons again.
func runTraced(s servedSpec, e env, seed uint64, seconds float64) (*result, error) {
	if s.restart {
		r, err := runServed(s, e, seed, seconds)
		if err != nil {
			return nil, err
		}
		runLayers(r, s.name, e, seconds/3)
		return r, nil
	}
	base, err := runReplica(s, e, seed, seconds/3, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced replica: %w", err)
	}
	r, err := runReplica(s, e, seed, seconds/3, newTracer())
	if err != nil {
		return nil, fmt.Errorf("traced replica: %w", err)
	}
	if b := base.metrics["elems_per_s"]; b > 0 {
		r.set("trace_overhead_frac", 1-r.metrics["elems_per_s"]/b)
	}
	// What the client sees is read from the untraced replica.
	for _, name := range []string{"insert_p50_ms", "delete_p50_ms", "client.ack_p50_ms", "client.insert_p99_ms", "client.delete_p99_ms", "gen.late_p99_ms"} {
		if v, ok := base.metrics[name]; ok {
			r.set(name, v)
			r.samples[name] = base.samples[name]
		}
	}
	r.attempted += base.attempted
	r.failed += base.failed
	r.problems = append(r.problems, base.problems...)
	runLayers(r, s.name, e, seconds/3)
	return r, nil
}

// windowSnap is what the daemons' counters read at one edge of the window.
type windowSnap struct {
	at    time.Time
	eng   []sim.Metrics
	stats []serve.Stats
}

func (c *inproc) snap() windowSnap {
	w := windowSnap{at: time.Now()}
	for _, d := range c.daemons {
		w.eng = append(w.eng, d.eng.Metrics())
		w.stats = append(w.stats, d.srv.Stats())
	}
	return w
}

// runReplica runs a served workload against the in-process replica; tr is
// nil for the untraced baseline.
func runReplica(s servedSpec, e env, seed uint64, seconds float64, tr *tracer) (*result, error) {
	c, err := startInproc(s.cluster, e.tmp, tr)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			c.stop()
		}
	}()
	addrs := make([]string, s.conns)
	for i := range addrs {
		addrs[i] = c.clientAddrs[i%len(c.clientAddrs)]
	}
	g, err := newGenerator(addrs, s.prios, seed)
	if err != nil {
		return nil, err
	}
	defer g.close()
	if tr != nil {
		g.sink = tr
	}
	if err := g.each(func(gc *gconn) error { return gc.insertN(s.prefill/len(g.conns), s.window) }); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}

	r := newResult(s.name)
	var l load
	var w0, w1 windowSnap
	l.atStart = func() { w0 = c.snap() }
	l.atEnd = func() { w1 = c.snap() }
	if s.workPerSecond > 0 {
		err = s.fixedWork(c, g, &l, seconds)
	} else {
		err = s.timedLoad(c, g, &l, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	if l.hist.drained, err = g.conns[0].probeEmpty(); err != nil {
		return nil, fmt.Errorf("drain probe: %w", err)
	}
	l.conns = g.conns
	for _, gc := range g.conns {
		l.hist.add(gc)
	}
	addLoadMetrics(r, &l, s.openRate > 0)
	daemons := c.daemons
	final := c.snap()
	lifetime := final.at.Sub(c.started)
	stopped = true
	if !c.stop() {
		r.problems = append(r.problems, "replica did not drain at shutdown")
	}
	if tr == nil {
		return r, nil
	}

	heapOps, err := tr.analyse(r, s.name, e.out, w0.at, w1.at)
	if err != nil {
		return nil, err
	}
	elems := r.metrics["elems_per_s"] * w1.at.Sub(w0.at).Seconds()
	addSeamMetrics(r, daemons, w0, w1, final, lifetime, heapOps, elems)
	return r, nil
}

// addSeamMetrics folds the counters read at the wrapped seams and from the
// layers' own Stats/Metrics into the per-layer metrics. Rates are over the
// measured window; handler seconds are over the replica's lifetime, since
// the clocks may only be read once the engines stopped.
func addSeamMetrics(r *result, daemons []*inprocDaemon, w0, w1, final windowSnap, lifetime time.Duration, heapOps int, elems float64) {
	window := w1.at.Sub(w0.at).Seconds()
	var ticks, msgs, bits float64
	var recs, syncs, leases, redeliv, overload, parked float64
	congestion := 0
	for i := range daemons {
		ticks += float64(w1.eng[i].Rounds - w0.eng[i].Rounds)
		msgs += float64(w1.eng[i].Messages - w0.eng[i].Messages)
		bits += float64(w1.eng[i].TotalBits - w0.eng[i].TotalBits)
		congestion = max(congestion, w1.eng[i].Congestion)
		a, b := w0.stats[i], w1.stats[i]
		recs += float64(b.WAL.Records - a.WAL.Records)
		syncs += float64(b.WAL.Syncs - a.WAL.Syncs)
		leases += float64(b.LeasesGranted - a.LeasesGranted)
		redeliv += float64(b.Redeliveries - a.Redeliveries)
		overload += float64(b.OverloadRejects - a.OverloadRejects)
		parked += float64(b.ParkedAcks - a.ParkedAcks)
	}
	n := float64(len(daemons))
	r.set("netrun.ticks_per_s", ticks/n/window)
	if ticks > 0 {
		r.set("netrun.msgs_per_tick", msgs/ticks)
		r.set("heap.ops_per_tick", float64(heapOps)/(ticks/n))
	}
	if elems > 0 {
		r.set("netrun.msgs_per_elem", msgs/elems)
		r.set("netrun.bits_per_elem", bits/elems)
	}
	r.set("netrun.congestion", float64(congestion))
	r.set("serve.leases_granted", leases)
	r.set("serve.redeliveries", redeliv)
	r.set("serve.overload_rejects", overload)
	r.set("forward.parked", parked)
	if syncs > 0 {
		r.set("wal.group_recs_per_sync", recs/syncs)
		r.set("wal.syncs_per_s", syncs/n/window)
	}

	var writes, wbytes, resps float64
	var rtt sample
	var outer, inner time.Duration
	byPkg := map[string]time.Duration{}
	byKind := map[string]float64{}
	for _, d := range daemons {
		writes += float64(d.writes.Load())
		wbytes += float64(d.wbytes.Load())
		resps += float64(d.resps.Load())
		rtt.v = append(rtt.v, d.fwdRTT.v...)
		outer += d.outer.busy()
		inner += d.inner.busy()
		for pkg, t := range d.inner.byPackage() {
			byPkg[pkg] += t
		}
		for _, b := range d.inner.buckets {
			byKind[b.kind] += float64(b.n * clockPeriod)
		}
	}
	if resps > 0 {
		r.set("serve.bytes_per_resp", wbytes/resps)
		r.set("serve.conn_writes_per_resp", writes/resps)
	}
	if rtt.n() > 0 {
		r.set("forward.ack_rtt_ms", rtt.median())
		r.samples["forward.ack_rtt_ms"] = rtt.n()
	}
	// Forwards are counted over the replica's lifetime, so the acks are too.
	var allAcked float64
	for _, st := range final.stats {
		allAcked += float64(st.Acked)
	}
	if allAcked > 0 {
		r.set("forward.remote_ack_frac", float64(rtt.n())/allAcked)
	}
	r.set("handlers.busy_frac", outer.Seconds()/(n*lifetime.Seconds()))
	r.set("handlers.transport_s", (outer - inner).Seconds())
	for _, pkg := range []string{"skeap", "aggtree", "seap", "kselect", "dht"} {
		r.set("handlers."+pkg+"_s", byPkg[pkg].Seconds())
	}
	for kind, count := range byKind {
		r.set(kindMetricName(kind), count)
	}
}
