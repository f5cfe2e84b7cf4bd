package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"dpq/internal/clientproto"
)

// The tests cover the parts of the benchmark that can lie without failing:
// a schedule that is not the one the seed names, a percentile the sample
// cannot support, self times that double-count, a /proc field off by one,
// a checker that lets a duplicate or a loss through.

func TestOpenScheduleIsSeedDeterministic(t *testing.T) {
	const rate, dur, lag = 750.0, 2 * time.Second, 50 * time.Millisecond
	a := openSchedule(7, rate, dur, lag)
	b := openSchedule(7, rate, dur, lag)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, openSchedule(8, rate, dur, lag)) {
		t.Fatal("two seeds gave the same schedule")
	}
	inserts, deletes := 0, 0
	due := map[time.Duration]int{} // insert due times awaiting their delete
	for i, ev := range a {
		if i > 0 && ev.due < a[i-1].due {
			t.Fatalf("event %d is due before its predecessor", i)
		}
		if ev.due < 0 || ev.due >= dur {
			t.Fatalf("event %d due at %v, outside [0, %v)", i, ev.due, dur)
		}
		switch ev.op {
		case opInsert:
			inserts++
			due[ev.due+lag]++
		case opDelete:
			deletes++
			if due[ev.due] == 0 {
				t.Fatalf("delete at %v matches no insert %v earlier", ev.due, lag)
			}
			due[ev.due]--
		default:
			t.Fatalf("event %d has op %v", i, ev.op)
		}
	}
	want := rate * dur.Seconds()
	if math.Abs(float64(inserts)-want) > 5*math.Sqrt(want) {
		t.Fatalf("%d inserts scheduled, want about %.0f", inserts, want)
	}
	if deletes > inserts || deletes < inserts-int(2*rate*lag.Seconds())-20 {
		t.Fatalf("%d deletes for %d inserts", deletes, inserts)
	}
}

// answerAll is a stand-in daemon: it answers every insert with
// StatusInserted and every delete with ⊥, at once.
func answerAll(ln net.Listener) {
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	for {
		req, err := clientproto.ReadRequest(br)
		if err != nil {
			return
		}
		resp := &clientproto.Response{ReqID: req.ReqID, Status: clientproto.StatusBottom}
		if req.Op == clientproto.OpInsert {
			resp.Status, resp.ID = clientproto.StatusInserted, req.ReqID
		}
		if clientproto.WriteResponse(bw, resp) != nil || bw.Flush() != nil {
			return
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go answerAll(ln)
	g, err := newGenerator([]string{ln.Addr().String()}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	// The schedule started 200 ms ago: every request leaves at least
	// 150 ms late, and although the stand-in daemon answers within
	// microseconds, the client has waited since the due time.
	const behind = 200 * time.Millisecond
	evs := []openEvent{{0, opInsert}, {10 * time.Millisecond, opInsert}, {50 * time.Millisecond, opDelete}}
	c := g.conns[0]
	if err := c.open(time.Now().Add(-behind), evs); err != nil {
		t.Fatal(err)
	}
	if len(c.recs) != len(evs) || len(c.late) != len(evs) {
		t.Fatalf("%d answers and %d lateness records for %d events", len(c.recs), len(c.late), len(evs))
	}
	for i, rec := range c.recs {
		if min := behind - evs[len(evs)-1].due; rec.lat < min {
			t.Errorf("request %d: latency %v, but it was due at least %v before it was answered", i, rec.lat, min)
		}
	}
	for i, late := range c.late {
		if want := behind - evs[i].due; late < want {
			t.Errorf("event %d: recorded %v late, was at least %v late", i, late, want)
		}
	}
}

func TestHighestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {15, 0}, {19, 0},
		{20, 0.5},         // 10 of 20 lie beyond the median
		{100, 0.9},        // 10 beyond p90, 1 beyond p99
		{999, 0.9},        // ⌈0.99·999⌉ = 990 leaves 9
		{1000, 0.99},      // exactly 10 beyond p99
		{9999, 0.99},      // ⌈0.999·9999⌉ = 9990 leaves 9
		{10000, 0.999},    // exactly 10 beyond p99.9
		{1000000, 0.9999}, // the highest candidate
	}
	for _, c := range cases {
		if got := highestQuantile(c.n); got != c.want {
			t.Errorf("highestQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supports(999, 0.99) || !supports(1000, 0.99) {
		t.Error("p99 must need 1000 samples")
	}
}

func TestSampleQuantileIsNearestRank(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	if got := s.median(); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	if got := s.quantile(0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want the 99th smallest", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	v := []float64{12.1, 11.4, 13.9, 12.6, 12.2, 11.9, 14.4, 12.0, 12.3, 11.8}
	q1, q2, q3 := quartiles(v)
	for _, c := range []struct{ got, want float64 }{{q1, 11.875}, {q2, 12.15}, {q3, 12.925}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("quartile %v, want %v", c.got, c.want)
		}
	}
	if got, want := spread(v), (12.925-11.875)/12.15; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 20..30 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out: only 90..100 is the parent's
		{ID: 5, Parent: 3, Name: "b1", Start: 25, End: 45}, // a grandchild is b's business
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 40, // 100 − (0..50) − (90..100)
		2: 30,
		3: 10, // 30 − (25..45)
		4: 30,
		5: 20,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestContiguousChildrenLeaveNoSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	rt := &reqTrace{op: opInsert, send: at(1), read: at(2), call: at(3), write: at(9), recv: at(10)}
	spans, ok := tr.spans(1<<32|1, rt)
	if !ok || len(spans) != 5 {
		t.Fatalf("spans = %v, ok = %v", spans, ok)
	}
	if self := selfTimes(spans)[spans[0].ID]; self != 0 {
		t.Fatalf("request keeps %v of self time under contiguous children", self)
	}
	rt.call = time.Time{}
	if _, ok := tr.spans(1<<32|1, rt); ok {
		t.Fatal("a request without its heap.call boundary has a gap; it must not count as explained")
	}
}

func TestTracerPairsHeapCallsInOrder(t *testing.T) {
	tr := newTracer()
	k := hostKey{0, 3}
	now := time.Now()
	ins, del := uint64(1<<32|1), uint64(1<<32|2)
	tr.clientSend(ins, opInsert, now)
	tr.clientSend(del, opDelete, now)
	tr.serveRead(k, ins, true, now)
	tr.serveRead(k, del, true, now)
	tr.serveRead(k, 5, false, now) // a peer daemon's forwarded ack: not a client request
	tr.heapCall(k, ins, now)
	tr.heapCall(k, 0, now)
	if tr.desync != 0 || tr.reqs[ins].call.IsZero() || tr.reqs[del].call.IsZero() {
		t.Fatalf("in-order heap calls were not paired (desync %d)", tr.desync)
	}
	tr.heapCall(k, ins, now) // nothing is waiting any more
	if tr.desync != 1 {
		t.Fatalf("an unpaired heap call went unnoticed")
	}
}

func TestFrameCutterReassembles(t *testing.T) {
	var stream []byte
	var want [][]byte
	for i := 1; i <= 5; i++ {
		body := bytes.Repeat([]byte{byte(i)}, i*7)
		want = append(want, body)
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(body)))
		stream = append(stream, body...)
	}
	for _, piece := range []int{1, 3, 11, len(stream)} {
		var fc frameCutter
		var got [][]byte
		for off := 0; off < len(stream); off += piece {
			fc.feed(stream[off:min(off+piece, len(stream))], func(b []byte) { got = append(got, append([]byte(nil), b...)) })
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pieces of %d bytes: frames %v, want %v", piece, got, want)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// utime = 1234 and stime = 566 ticks; the command holds spaces and a ')'.
	stat := "4242 (dpqd (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 566 0 0 20 0 9 0 12345 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 18 * time.Second; got != want {
		t.Fatalf("cpu %v, want %v (1800 ticks at %d Hz)", got, want, userHz)
	}
	if _, err := parseStatCPU([]byte("4242 (dpqd) S 1 2 3")); err == nil {
		t.Fatal("a truncated stat line parsed")
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Fatal("a stat line without a command field parsed")
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\tdpqd\nVmPeak:\t 1234567 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseStatusHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 200<<20 {
		t.Fatalf("VmHWM %d bytes, want 200 MiB", got)
	}
	if _, err := parseStatusHWM([]byte("Name:\tdpqd\nVmRSS:\t 1 kB\n")); err == nil {
		t.Fatal("a status file without VmHWM parsed")
	}
	// The live files of this process parse too.
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if b, err := procPeakRSS(os.Getpid()); err != nil || b <= 0 {
		t.Errorf("own peak RSS %d, %v", b, err)
	}
}

// cleanHistory is two connections that inserted, consumed and acked four
// elements between them, exactly once each.
func cleanHistory() *history {
	return &history{
		inserted: [][]uint64{{1, 2}, {3, 4}},
		consumed: [][]delivery{{{3, 1}, {1, 1}}, {{2, 1}, {4, 1}}},
		acked:    [][]uint64{{3, 1}, {2, 4}},
		values:   [][]seqVal{{{1, 10}, {2, 20}, {3, 35}}, {{1, 5}, {2, 25}}},
		drained:  true,
	}
}

func TestCheckerAcceptsCleanHistory(t *testing.T) {
	if n, msgs := cleanHistory().check(); n != 0 {
		t.Fatalf("clean history has %d violations: %v", n, msgs)
	}
}

func TestCheckerRejects(t *testing.T) {
	cases := map[string]func(h *history){
		"duplicated element": func(h *history) {
			h.consumed[1] = append(h.consumed[1], delivery{1, 1})
		},
		"lost element": func(h *history) {
			h.consumed[1] = h.consumed[1][:1]
			h.acked[1] = h.acked[1][:1]
		},
		"element never inserted": func(h *history) {
			h.consumed[0] = append(h.consumed[0], delivery{9, 1})
			h.acked[0] = append(h.acked[0], 9)
		},
		"unacked delivery": func(h *history) { h.acked[0] = h.acked[0][:1] },
		"bottom on a non-empty queue": func(h *history) {
			h.bottoms = 1
		},
		"queue not drained": func(h *history) { h.drained = false },
		"serialization values out of issue order": func(h *history) {
			h.values[0][2].v = 15
		},
		"acked element resurrected by recovery": func(h *history) {
			// Connection 0 worked before the crash, connection 1 after it.
			h.crashAt = 1
			h.consumed[1] = append(h.consumed[1], delivery{3, 1})
		},
	}
	for name, breakIt := range cases {
		h := cleanHistory()
		breakIt(h)
		if n, _ := h.check(); n == 0 {
			t.Errorf("%s: not rejected", name)
		}
	}
	// A second delivery that says it is one is legal.
	h := cleanHistory()
	h.consumed[1] = append(h.consumed[1], delivery{1, 2})
	if n, msgs := h.check(); n != 0 {
		t.Errorf("a counted redelivery was rejected: %v", msgs)
	}
}

func TestWorseBy(t *testing.T) {
	lower := metricSpec{Better: "lower"}
	higher := metricSpec{Better: "higher"}
	if got := worseBy(lower, 10, 11); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("lower-is-better 10→11: %v", got)
	}
	if got := worseBy(higher, 10, 9); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("higher-is-better 10→9: %v", got)
	}
	if worseBy(higher, 10, 11) >= 0 || worseBy(lower, 10, 9) >= 0 {
		t.Error("an improvement counted as worse")
	}
}

func TestSummariseTakesTheMedianWindow(t *testing.T) {
	r := newResult("w")
	for _, v := range []float64{9, 1, 3, 2, 100} {
		r.window("m", v)
	}
	r.summarise()
	if got := r.metrics["m"]; got != 3 {
		t.Fatalf("summarised 5 windows to %v, want their median 3", got)
	}
}

func TestWindowsFollowTheMarks(t *testing.T) {
	sec := time.Second
	gc := &gconn{}
	// Two windows of one second; the second handles twice the elements at
	// twice the latency and three times the CPU.
	add := func(at time.Duration, op opKind, lat time.Duration) {
		gc.recs = append(gc.recs, latRec{op: op, recv: at, lat: lat})
	}
	add(sec/2, opInsert, 0) // before the span: ignored
	for i := 0; i < 10; i++ {
		add(sec+time.Duration(i)*time.Millisecond, opAck, time.Millisecond)
		add(sec+time.Duration(i)*time.Millisecond, opInsert, 2*time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		add(2*sec+time.Duration(i)*time.Millisecond, opAck, 2*time.Millisecond)
		add(2*sec+time.Duration(i)*time.Millisecond, opInsert, 4*time.Millisecond)
	}
	add(3*sec, opAck, 0) // at the end mark: outside
	l := &load{conns: []*gconn{gc}, marks: []mark{{sec, 0}, {2 * sec, 10 * time.Millisecond}, {3 * sec, 70 * time.Millisecond}}}
	l.hist.drained = true
	r := newResult("w")
	addLoadMetrics(r, l, false)
	want := map[string][]float64{
		"elems_per_s":     {10, 20},
		"insert_p50_ms":   {2, 4},
		"cpu_us_per_elem": {1000, 3000},
	}
	for name, w := range want {
		if got := r.windows[name]; !reflect.DeepEqual(got, w) {
			t.Errorf("%s windows %v, want %v", name, got, w)
		}
	}
	if r.samples["insert_p50_ms"] != 30 {
		t.Errorf("insert samples %d, want 30", r.samples["insert_p50_ms"])
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, equal to the tables the program reports by.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
}

func TestSpecObeysTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a contract name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(gated()); n < 2 || n > 8 {
		t.Errorf("%d gated workloads", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
		_, served := servedSpecs[w.Name]
		_, sim := simWorkloads[w.Name]
		if served == sim {
			t.Errorf("workload %s must be exactly one of served and simulated", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("layer metric %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}
