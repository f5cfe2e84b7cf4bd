package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval in the life of a request. Spans of one request
// share Req; a child names the span that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace's epoch
	End    int64  `json:"end_ns"`
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// and may stick out of the parent; only the covered part of the parent's
// own interval counts.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, until := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, until), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// reqTrace holds the boundaries seen for one request. A zero time means the
// boundary was not observed.
type reqTrace struct {
	op    opKind
	send  time.Time // client.send
	read  time.Time // serve.read: the frame's last byte left the socket
	call  time.Time // heap.call: serve called into the heap protocol
	write time.Time // serve.write: the response entered the socket
	recv  time.Time // client.recv
}

// hostKey names one host of one in-process daemon.
type hostKey struct{ daemon, host int }

// tracer collects span boundaries from the seams of the in-process
// cluster. Boundaries arrive from several goroutines; one lock orders them.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	reqs  map[uint64]*reqTrace
	// awaiting lists, per host, the heap requests read from the host's
	// connection whose heap call has not happened yet. serve handles a
	// connection's requests in order on one goroutine, so the next heap
	// call on the host belongs to the head of the list.
	awaiting map[hostKey][]uint64
	// desync counts heap calls that could not be tied to a request.
	desync int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), reqs: map[uint64]*reqTrace{}, awaiting: map[hostKey][]uint64{}}
}

// clientReq reports whether a request id was minted by the generator:
// daemons forwarding acks to each other number their requests from 1.
func clientReq(reqID uint64) bool { return reqID>>32 != 0 }

func (t *tracer) clientSend(reqID uint64, op opKind, at time.Time) {
	t.mu.Lock()
	t.reqs[reqID] = &reqTrace{op: op, send: at}
	t.mu.Unlock()
}

func (t *tracer) clientRecv(reqID uint64, at time.Time) {
	t.mu.Lock()
	if r := t.reqs[reqID]; r != nil {
		r.recv = at
	}
	t.mu.Unlock()
}

// serveRead marks a request frame read by a daemon; heap requests queue up
// for their heap call.
func (t *tracer) serveRead(k hostKey, reqID uint64, heapOp bool, at time.Time) {
	if !clientReq(reqID) {
		return
	}
	t.mu.Lock()
	if r := t.reqs[reqID]; r != nil {
		r.read = at
		if heapOp {
			t.awaiting[k] = append(t.awaiting[k], reqID)
		}
	}
	t.mu.Unlock()
}

// heapCall marks serve calling the heap on a host. want is the request id
// an insert carries in its payload, 0 for a delete; it checks the pairing.
func (t *tracer) heapCall(k hostKey, want uint64, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.awaiting[k]
	if len(q) == 0 || (want != 0 && q[0] != want) {
		t.desync++
		return
	}
	t.awaiting[k] = q[1:]
	t.reqs[q[0]].call = at
}

func (t *tracer) serveWrite(reqID uint64, at time.Time) {
	if !clientReq(reqID) {
		return
	}
	t.mu.Lock()
	if r := t.reqs[reqID]; r != nil {
		r.write = at
	}
	t.mu.Unlock()
}

// Span names, in the order a request passes through them.
const (
	spanRequest  = "request"       // client.send → client.recv
	spanNetIn    = "net.request"   // client.send → serve.read
	spanAdmit    = "serve.admit"   // serve.read → heap.call: parse, admission, id mint, WAL append
	spanComplete = "heap.complete" // heap.call → serve.write: protocol rounds, WAL wait, fan-out
	spanSettle   = "serve.settle"  // serve.read → serve.write of an ack: lease, WAL wait, forward
	spanNetOut   = "net.response"  // serve.write → client.recv
)

// spans turns one request's boundaries into its span tree: the request and
// its contiguous children. ok is false when a boundary is missing or out of
// order, which leaves a gap the trace cannot explain.
func (t *tracer) spans(reqID uint64, r *reqTrace) (out []span, ok bool) {
	ns := func(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }
	marks := []time.Time{r.send, r.read, r.call, r.write, r.recv}
	names := []string{spanNetIn, spanAdmit, spanComplete, spanNetOut}
	if r.op == opAck {
		marks = []time.Time{r.send, r.read, r.write, r.recv}
		names = []string{spanNetIn, spanSettle, spanNetOut}
	}
	for i, m := range marks {
		if m.IsZero() || (i > 0 && m.Before(marks[i-1])) {
			return nil, false
		}
	}
	// Span ids: the request id is unique and below 2^40, so shifting leaves
	// room for the child index.
	root := reqID << 3
	out = append(out, span{ID: root, Req: reqID, Name: spanRequest, Start: ns(r.send), End: ns(r.recv)})
	for i, name := range names {
		out = append(out, span{ID: root + uint64(i) + 1, Parent: root, Req: reqID, Name: name, Start: ns(marks[i]), End: ns(marks[i+1])})
	}
	return out, true
}

// maxTraceRequests bounds the trace file: the first requests of the
// measured window are written, all of them are analysed.
const maxTraceRequests = 20000

// analyse folds the requests answered in [from, to) into the span metrics
// and writes their spans to dir/trace-<workload>.jsonl. It returns the
// number of heap requests (inserts and deletes) among them.
func (t *tracer) analyse(r *result, workload, dir string, from, to time.Time) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]uint64, 0, len(t.reqs))
	for id, rt := range t.reqs {
		if !rt.recv.IsZero() && !rt.recv.Before(from) && rt.recv.Before(to) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return t.reqs[ids[i]].send.Before(t.reqs[ids[j]].send) })

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)

	seg := map[string]*sample{}
	add := func(name string, d time.Duration) {
		if seg[name] == nil {
			seg[name] = &sample{}
		}
		seg[name].add(float64(d) / float64(time.Millisecond))
	}
	var total, explained time.Duration // over heap requests
	heapOps, written := 0, 0
	for _, id := range ids {
		rt := t.reqs[id]
		spans, ok := t.spans(id, rt)
		if rt.op != opAck {
			heapOps++
			total += rt.recv.Sub(rt.send)
		}
		if !ok {
			continue
		}
		self := selfTimes(spans)
		for _, s := range spans[1:] {
			add(s.Name, time.Duration(s.End-s.Start))
		}
		if rt.op != opAck {
			// What the children explain is the request minus its self time.
			explained += rt.recv.Sub(rt.send) - self[spans[0].ID]
		}
		if written < maxTraceRequests {
			written++
			for _, s := range spans {
				if err := enc.Encode(s); err != nil {
					return 0, err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	med := func(name string) float64 {
		if seg[name] == nil {
			return 0
		}
		r.samples[name+"_ms"] = seg[name].n()
		return seg[name].median()
	}
	r.set("net.request_ms", med(spanNetIn))
	r.set("serve.admit_ms", med(spanAdmit))
	r.set("heap.complete_ms", med(spanComplete))
	r.set("net.response_ms", med(spanNetOut))
	r.set("heap.ticks_per_op", r.metrics["heap.complete_ms"]/(float64(tick)/float64(time.Millisecond)))
	if total > 0 {
		r.set("trace.coverage_frac", explained.Seconds()/total.Seconds())
	}
	if t.desync > 0 {
		r.problems = append(r.problems, fmt.Sprintf("trace: %d heap calls could not be tied to a request", t.desync))
	}
	return heapOps, f.Close()
}
