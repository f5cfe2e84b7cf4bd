// Command dpqload is the closed-loop load generator and checker for a
// dpqd cluster. It opens -conns pipelined connections per daemon, runs an
// insert phase followed by a delete phase of equal size, and then verifies
// the cluster behaved like one priority queue:
//
//   - every inserted element id is consumed exactly once and nothing else
//     appears (exactly-once end to end, through the peer sessions, the
//     daemons' completion routing and the lease protocol);
//   - no delete returns ⊥ while the queue is non-empty (except transiently
//     in -ack-mode nack, where every element is out under a lease once),
//     and one trailing delete after the drain does return ⊥;
//   - each connection's serialization values are strictly increasing
//     (local consistency: a connection is pinned to one host, so its
//     responses follow that host's issue order).
//
// -ack-mode drives the lease protocol: "ack" (default) acknowledges every
// delivered element, "nack" rejects each element's first delivery and
// verifies the redelivery arrives with delivery count 2, "none" leaves
// every element leased (the pre-lease behaviour).
//
// It reports per-phase throughput and response latency percentiles.
// -quick (6000 inserts + 6000 deletes + 1 drain probe) is the CI preset.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/mathx"
)

// seqVal pairs a response's serialization value with its request's
// per-connection issue sequence.
type seqVal struct {
	seq uint64
	v   int64
}

// pendingReq is one in-flight request: when it was sent and what it was,
// so rejections and lease responses can be routed and retryable failures
// (StatusUnavailable during a peer outage) can re-issue the request.
type pendingReq struct {
	at      time.Time
	op      uint8
	id      uint64 // OpAck/OpNack: the leased element
	prio    uint64 // OpInsert: original priority, for re-issue
	payload string // OpInsert: original payload, for re-issue
	retries int    // re-issues so far
}

// conn is one pipelined client connection with its recorded outcomes.
type conn struct {
	idx      int
	c        net.Conn
	dec      *clientproto.Decoder
	resp     clientproto.Response // every response is decoded into it
	bw       *bufio.Writer
	seq      uint64
	sent     map[uint64]pendingReq // reqID → in-flight request
	mode     string                // ack, nack or none
	consumed *atomic.Int64         // cluster-wide consumed elements (ack/nack modes)
	// maxRetries bounds per-request re-issues of retryable rejections
	// (a cluster serving degraded answers StatusUnavailable for work that
	// needs a crashed peer); 0 turns any retryable rejection into a
	// failure. allowRedeliv accepts delivery counts > 1 in ack mode — a
	// crash-recovery drain legitimately sees expiry redeliveries.
	maxRetries   int
	allowRedeliv bool
	rng          *rand.Rand

	values       []seqVal // serialization values tagged with issue order
	retries      int      // retryable rejections re-issued
	insertIDs    []uint64
	deleteIDs    []uint64 // consumed elements (delivered, in "none" mode)
	bottoms      int
	acked        int
	nacked       int
	redeliveries int
	latencies    []time.Duration
}

func (c *conn) nextReqID() uint64 {
	c.seq++
	return uint64(c.idx)<<32 | c.seq
}

func (c *conn) write(req *clientproto.Request, pend pendingReq) error {
	pend.at = time.Now()
	pend.op = req.Op
	c.sent[req.ReqID] = pend
	if err := clientproto.WriteRequest(c.bw, req); err != nil {
		return err
	}
	return c.bw.Flush()
}

// sendOne issues one request (insert below the priority bound, or delete).
func (c *conn) sendOne(insert bool, prios uint64) error {
	req := &clientproto.Request{ReqID: c.nextReqID()}
	if insert {
		req.Op = clientproto.OpInsert
		// Spread priorities deterministically; the daemon maps them into
		// its protocol's universe.
		req.Prio = c.seq * 2654435761 % prios
		req.Payload = "w"
	} else {
		req.Op = clientproto.OpDelete
	}
	return c.write(req, pendingReq{prio: req.Prio, payload: req.Payload})
}

// settle acks or nacks a leased element.
func (c *conn) settle(op uint8, id uint64) error {
	return c.write(&clientproto.Request{ReqID: c.nextReqID(), Op: op, ID: id}, pendingReq{id: id})
}

// retry re-issues a retryably rejected request under a fresh reqID after
// a jittered exponential backoff. The backoff sleeps on the connection's
// goroutine — stalling this pipeline while a peer daemon restarts is the
// point.
func (c *conn) retry(pend pendingReq) error {
	d := 10 * time.Millisecond << uint(pend.retries)
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	time.Sleep(d/2 + time.Duration(c.rng.Int63n(int64(d))))
	c.retries++
	req := &clientproto.Request{
		ReqID: c.nextReqID(), Op: pend.op, ID: pend.id,
		Prio: pend.prio, Payload: pend.payload,
	}
	return c.write(req, pendingReq{
		id: pend.id, prio: pend.prio, payload: pend.payload,
		retries: pend.retries + 1,
	})
}

// readOne consumes one response, records its outcome and drives the lease
// protocol for delivered elements according to the connection's mode.
func (c *conn) readOne() error {
	resp := &c.resp
	if err := c.dec.Response(resp); err != nil {
		return err
	}
	pend, ok := c.sent[resp.ReqID]
	if !ok {
		return fmt.Errorf("response for unknown reqID %d", resp.ReqID)
	}
	delete(c.sent, resp.ReqID)
	if resp.Retryable() {
		// The cluster is serving degraded (a peer daemon is down): the
		// request is valid, the cluster just cannot complete it yet. Back
		// off and re-issue, up to the retry budget.
		if pend.retries >= c.maxRetries {
			return fmt.Errorf("gave up after %d retries: %v", pend.retries, resp.Err())
		}
		return c.retry(pend)
	}
	if err := resp.Err(); err != nil {
		// A typed server rejection: the load generator never sends invalid
		// requests, so any error code is a verdict failure — surface which
		// one, not just that the connection broke.
		return err
	}
	c.latencies = append(c.latencies, time.Since(pend.at))
	if (pend.op == clientproto.OpInsert || pend.op == clientproto.OpDelete) && resp.Value >= 0 {
		// Only heap operations carry serialization values; ack/nack are
		// serving-layer bookkeeping outside the order ≺. A negative value
		// marks a degraded-mode insert that was durably logged but not yet
		// serialized — it has no place in the order.
		c.values = append(c.values, seqVal{seq: resp.ReqID & (1<<32 - 1), v: resp.Value})
	}
	switch resp.Status {
	case clientproto.StatusInserted:
		c.insertIDs = append(c.insertIDs, resp.ID)
	case clientproto.StatusElem:
		switch c.mode {
		case "ack":
			if resp.Deliveries != 1 && !c.allowRedeliv {
				return fmt.Errorf("element %d delivered %d times without any nack or expiry", resp.ID, resp.Deliveries)
			}
			if resp.Deliveries > 1 {
				c.redeliveries++
			}
			c.deleteIDs = append(c.deleteIDs, resp.ID)
			c.consumed.Add(1)
			return c.settle(clientproto.OpAck, resp.ID)
		case "nack":
			switch resp.Deliveries {
			case 1:
				return c.settle(clientproto.OpNack, resp.ID)
			case 2:
				c.redeliveries++
				c.deleteIDs = append(c.deleteIDs, resp.ID)
				c.consumed.Add(1)
				return c.settle(clientproto.OpAck, resp.ID)
			default:
				return fmt.Errorf("element %d delivered %d times, want at most 2", resp.ID, resp.Deliveries)
			}
		default: // none: leave the lease hanging
			c.deleteIDs = append(c.deleteIDs, resp.ID)
		}
	case clientproto.StatusBottom:
		c.bottoms++
	case clientproto.StatusAcked:
		c.acked++
	case clientproto.StatusNacked:
		c.nacked++
	}
	return nil
}

// runPhase pushes quota requests through the connection with at most
// window outstanding, then drains the in-flight tail (including the acks
// chained onto deliveries).
func (c *conn) runPhase(insert bool, quota, window int, prios uint64) error {
	for i := 0; i < quota; i++ {
		// A loop, not an if: reading a delivery chains its ack into
		// c.sent, so one read does not always free a slot.
		for len(c.sent) >= window {
			if err := c.readOne(); err != nil {
				return err
			}
		}
		if err := c.sendOne(insert, prios); err != nil {
			return err
		}
	}
	for len(c.sent) > 0 {
		if err := c.readOne(); err != nil {
			return err
		}
	}
	return nil
}

// runDrain deletes (acking every delivery) until ⊥ means empty. In a
// delete-only workload against a quiesced cluster the queue size is
// monotone, so the first ⊥ means empty for good (patience 0). A cluster
// still reconciling after a restart returns transient ⊥s while orphaned
// elements are re-injected, so with a patience window a ⊥ only ends the
// drain once no element has been delivered for that long.
func (c *conn) runDrain(window int, patience time.Duration) error {
	sawBottom := false
	lastProgress := time.Now()
	for !sawBottom || len(c.sent) > 0 {
		if !sawBottom && len(c.sent) < window {
			if err := c.sendOne(false, 0); err != nil {
				return err
			}
			continue
		}
		preB, preD := c.bottoms, len(c.deleteIDs)
		if err := c.readOne(); err != nil {
			return err
		}
		if len(c.deleteIDs) > preD {
			lastProgress = time.Now()
		}
		if c.bottoms > preB {
			if patience <= 0 || time.Since(lastProgress) > patience {
				sawBottom = true
			} else if len(c.sent) == 0 {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	return nil
}

// runDeleteLoop keeps deleting until the cluster-wide consumed count
// reaches target (nack mode). A ⊥ here is not a verdict failure: with
// every element out under a lease at once the queue is transiently empty,
// so the loop backs off briefly and retries.
func (c *conn) runDeleteLoop(target int64, window int) error {
	for {
		if c.consumed.Load() >= target {
			for len(c.sent) > 0 {
				if err := c.readOne(); err != nil {
					return err
				}
			}
			return nil
		}
		if len(c.sent) < window {
			if err := c.sendOne(false, 0); err != nil {
				return err
			}
			continue
		}
		pre := c.bottoms
		if err := c.readOne(); err != nil {
			return err
		}
		if c.bottoms > pre {
			time.Sleep(time.Millisecond)
		}
	}
}

// percentile returns the p-quantile of the sorted latencies by the
// ceil-based nearest-rank definition: the smallest sample with at least
// ⌈p·n⌉ observations at or below it. Truncating the rank instead biases
// the tail low — p99 of 100 samples must be the 99th-smallest, not the
// 98th, and p99 of 4 samples is the maximum, not the second-largest.
func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	return lat[mathx.NearestRank(len(lat), p)]
}

// phaseStats summarizes one phase across all connections; lo[i] and hi[i]
// bound conn i's latency records for the phase.
func phaseStats(conns []*conn, lo, hi []int, elapsed time.Duration) string {
	var lat []time.Duration
	n := 0
	for i, c := range conns {
		for _, d := range c.latencies[lo[i]:hi[i]] {
			lat = append(lat, d)
			n++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return fmt.Sprintf("%d ops in %v (%.0f ops/s), latency p50=%v p90=%v p99=%v max=%v",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(),
		percentile(lat, 0.50).Round(time.Microsecond), percentile(lat, 0.90).Round(time.Microsecond),
		percentile(lat, 0.99).Round(time.Microsecond), percentile(lat, 1.0).Round(time.Microsecond))
}

func main() {
	servers := flag.String("servers", "", "comma-separated dpqd client addresses (required)")
	connsPer := flag.Int("conns", 4, "connections per server")
	inserts := flag.Int("inserts", 2000, "total inserts (deletes match)")
	window := flag.Int("window", 128, "outstanding requests per connection")
	prios := flag.Uint64("prios", 3, "priority spread of generated inserts")
	ackMode := flag.String("ack-mode", "ack", "lease handling for delivered elements: ack, nack (reject first delivery, ack the redelivery) or none (leave leased)")
	phase := flag.String("phase", "full", "full: insert then delete; insert: inserts only (elements stay pending); drain: delete+ack a recovered cluster until empty")
	idsOut := flag.String("ids-out", "", "write acknowledged inserted ids (phase insert/full) or consumed ids (phase drain) to FILE, one per line")
	expectMin := flag.Int("expect-min", -1, "phase drain: fail unless at least this many elements were consumed")
	maxRetries := flag.Int("max-retries", 12, "re-issues per request on retryable rejections (StatusUnavailable while a peer daemon is down); 0 fails fast")
	drainPatience := flag.Duration("drain-patience", 0, "phase drain: treat ⊥ as empty only after this long without a delivery (reconciling clusters return transient ⊥s)")
	quick := flag.Bool("quick", false, "CI preset: 6000 inserts + 6000 deletes")
	relaxed := flag.Bool("relaxed", false, "target a -relax daemon: deletes retry past transient ⊥ (a relaxed sweep can miss elements buffered at another host) and the per-connection serialization monotonicity check is skipped (relaxed deliveries are not locally consistent)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dpqload: FAIL: "+format+"\n", args...)
		os.Exit(1)
	}
	if *servers == "" {
		fail("-servers is required")
	}
	switch *ackMode {
	case "ack", "nack", "none":
	default:
		fail("unknown -ack-mode %q", *ackMode)
	}
	switch *phase {
	case "full", "insert":
	case "drain":
		// Draining must consume: unacked elements would go back into the
		// queue when their leases expire and the drain would never finish.
		*ackMode = "ack"
	default:
		fail("unknown -phase %q", *phase)
	}
	if *quick {
		*inserts = 6000
	}
	addrs := strings.Split(*servers, ",")

	var consumed atomic.Int64
	var conns []*conn
	for _, addr := range addrs {
		for i := 0; i < *connsPer; i++ {
			nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				fail("dial %s: %v", addr, err)
			}
			defer nc.Close()
			conns = append(conns, &conn{
				idx: len(conns), c: nc,
				dec:          clientproto.NewDecoder(bufio.NewReader(nc)),
				bw:           bufio.NewWriter(nc),
				sent:         map[uint64]pendingReq{},
				mode:         *ackMode,
				consumed:     &consumed,
				maxRetries:   *maxRetries,
				allowRedeliv: *phase == "drain",
				rng:          rand.New(rand.NewSource(int64(len(conns)) + 1)),
			})
		}
	}

	// Phase quotas: spread inserts across connections, remainder on the
	// first ones; deletes mirror the insert quotas so totals match.
	quota := make([]int, len(conns))
	for i := 0; i < *inserts; i++ {
		quota[i%len(conns)]++
	}
	runAll := func(run func(i int, c *conn) error) error {
		var wg sync.WaitGroup
		errs := make([]error, len(conns))
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c *conn) {
				defer wg.Done()
				errs[i] = run(i, c)
			}(i, c)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("conn %d: %v", i, err)
			}
		}
		return nil
	}

	latMark := func() []int {
		m := make([]int, len(conns))
		for i, c := range conns {
			m[i] = len(c.latencies)
		}
		return m
	}
	totalRetries := func() int {
		n := 0
		for _, c := range conns {
			n += c.retries
		}
		return n
	}

	// writeIDs dumps acknowledged ids for cross-run comparisons (the
	// crash-recovery harness diffs the ids inserted before a SIGKILL
	// against the ids drained after recovery). Written even when a phase
	// fails mid-flight: an acknowledged insert is durable no matter how
	// the run ends.
	writeIDs := func(pick func(*conn) []uint64) {
		if *idsOut == "" {
			return
		}
		var b strings.Builder
		for _, c := range conns {
			for _, id := range pick(c) {
				fmt.Fprintf(&b, "%d\n", id)
			}
		}
		if err := os.WriteFile(*idsOut, []byte(b.String()), 0o644); err != nil {
			fail("%v", err)
		}
	}

	if *phase == "drain" {
		start := time.Now()
		drainStart := latMark()
		if err := runAll(func(i int, c *conn) error { return c.runDrain(*window, *drainPatience) }); err != nil {
			fail("drain: %v", err)
		}
		elapsed := time.Since(start)
		consumed := map[uint64]bool{}
		acked := 0
		for _, c := range conns {
			for _, id := range c.deleteIDs {
				if consumed[id] {
					fail("element %d consumed twice", id)
				}
				consumed[id] = true
			}
			acked += c.acked
		}
		if acked != len(consumed) {
			fail("%d elements consumed but %d acked", len(consumed), acked)
		}
		if *expectMin >= 0 && len(consumed) < *expectMin {
			fail("drained %d elements, want at least %d", len(consumed), *expectMin)
		}
		writeIDs(func(c *conn) []uint64 { return c.deleteIDs })
		fmt.Printf("dpqload: drain phase: %s retries=%d\n", phaseStats(conns, drainStart, latMark(), elapsed), totalRetries())
		fmt.Printf("dpqload: OK drained=%d acked=%d retries=%d conns=%d\n", len(consumed), acked, totalRetries(), len(conns))
		return
	}

	phaseStart := latMark()
	start := time.Now()
	if err := runAll(func(i int, c *conn) error { return c.runPhase(true, quota[i], *window, *prios) }); err != nil {
		writeIDs(func(c *conn) []uint64 { return c.insertIDs })
		fail("insert phase: %v", err)
	}
	insertElapsed := time.Since(start)
	insertEnd := latMark()
	insertRetries := totalRetries()
	writeIDs(func(c *conn) []uint64 { return c.insertIDs })

	if *phase == "insert" {
		inserted := map[uint64]bool{}
		for _, c := range conns {
			for _, id := range c.insertIDs {
				if inserted[id] {
					fail("element %d inserted twice", id)
				}
				inserted[id] = true
			}
		}
		if len(inserted) != *inserts {
			fail("%d inserts acknowledged, want %d", len(inserted), *inserts)
		}
		fmt.Printf("dpqload: insert phase: %s retries=%d\n", phaseStats(conns, phaseStart, insertEnd, insertElapsed), insertRetries)
		fmt.Printf("dpqload: OK inserts=%d retries=%d conns=%d (left pending)\n", len(inserted), insertRetries, len(conns))
		return
	}

	start = time.Now()
	deletePhase := func(i int, c *conn) error { return c.runPhase(false, quota[i], *window, *prios) }
	if *ackMode == "nack" || *relaxed {
		// Redeliveries roam (nack mode): a nacked element may come back on
		// any connection. Relaxed daemons return transient ⊥s: a delete's
		// sweep can find every local heap empty while elements sit in
		// another host's prefetch buffer. Both cases target the
		// cluster-wide consumed count instead of per-connection quotas.
		target := int64(*inserts)
		deletePhase = func(i int, c *conn) error { return c.runDeleteLoop(target, *window) }
	}
	if err := runAll(deletePhase); err != nil {
		fail("delete phase: %v", err)
	}
	deleteElapsed := time.Since(start)
	deleteEnd := latMark()

	// Drain probe: the queue must now be empty, so one more delete gets ⊥.
	probe := conns[0]
	preBottoms := probe.bottoms
	if err := probe.sendOne(false, *prios); err != nil {
		fail("drain probe: %v", err)
	}
	for len(probe.sent) > 0 {
		if err := probe.readOne(); err != nil {
			fail("drain probe: %v", err)
		}
	}
	drained := probe.bottoms == preBottoms+1

	// Verdicts.
	inserted := map[uint64]bool{}
	deleted := map[uint64]bool{}
	bottoms, acked, nacked, redeliveries := 0, 0, 0, 0
	for _, c := range conns {
		for _, id := range c.insertIDs {
			if inserted[id] {
				fail("element %d inserted twice", id)
			}
			inserted[id] = true
		}
		for _, id := range c.deleteIDs {
			if deleted[id] {
				fail("element %d consumed twice", id)
			}
			deleted[id] = true
		}
		bottoms += c.bottoms
		acked += c.acked
		nacked += c.nacked
		redeliveries += c.redeliveries
		// Local consistency: in issue order (responses arrive out of order
		// under pipelining), a connection's serialization values must be
		// strictly increasing, because the connection is pinned to one host
		// and the cluster serialization respects each host's program order.
		// A relaxed daemon deliberately gives this up (a delete issued
		// before an insert can serialize after it), so -relaxed skips it.
		if !*relaxed {
			sort.Slice(c.values, func(i, j int) bool { return c.values[i].seq < c.values[j].seq })
			for i := 1; i < len(c.values); i++ {
				if c.values[i].v <= c.values[i-1].v {
					fail("conn %d: serialization values not increasing in issue order: op %d→%d, op %d→%d",
						c.idx, c.values[i-1].seq, c.values[i-1].v, c.values[i].seq, c.values[i].v)
				}
			}
		}
	}
	for id := range deleted {
		if !inserted[id] {
			fail("consumed element %d was never inserted", id)
		}
	}
	if len(inserted) != *inserts {
		fail("%d inserts acknowledged, want %d", len(inserted), *inserts)
	}
	if len(deleted) != *inserts {
		fail("%d elements consumed, want %d (%d ⊥ responses)", len(deleted), *inserts, bottoms)
	}
	if !drained {
		fail("drain probe did not return ⊥")
	}
	switch *ackMode {
	case "ack":
		if acked != *inserts {
			fail("%d elements acked, want %d", acked, *inserts)
		}
		if bottoms != probe.bottoms-preBottoms && !*relaxed {
			// Any ⊥ before the probe means a delete raced past the inserts,
			// which the two-phase barrier should have excluded. A relaxed
			// daemon emits transient ⊥s near the end of the drain (in-flight
			// deliveries make the queue look empty to a concurrent sweep),
			// so -relaxed only requires that every element was consumed.
			fail("unexpected ⊥ responses during the phases: %d", bottoms-1)
		}
	case "nack":
		// Every element was rejected once and consumed on its redelivery;
		// transient ⊥ during the churn is expected and uncounted.
		if nacked != *inserts || acked != *inserts || redeliveries != *inserts {
			fail("nacked=%d acked=%d redeliveries=%d, want all %d", nacked, acked, redeliveries, *inserts)
		}
	case "none":
		if bottoms != probe.bottoms-preBottoms {
			fail("unexpected ⊥ responses during the phases: %d", bottoms-1)
		}
	}

	fmt.Printf("dpqload: insert phase: %s retries=%d\n", phaseStats(conns, phaseStart, insertEnd, insertElapsed), insertRetries)
	fmt.Printf("dpqload: delete phase: %s retries=%d\n", phaseStats(conns, insertEnd, deleteEnd, deleteElapsed), totalRetries()-insertRetries)
	fmt.Printf("dpqload: OK inserts=%d consumed=%d acked=%d nacked=%d redelivered=%d retries=%d conns=%d mode=%s drained=%v\n",
		len(inserted), len(deleted), acked, nacked, redeliveries, totalRetries(), len(conns), *ackMode, drained)
}
