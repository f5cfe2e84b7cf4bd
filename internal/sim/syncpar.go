package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Parallel stepping for the SyncEngine: the per-round activation set is
// partitioned across a worker pool and the round's side effects are merged
// back in deterministic node order, so a parallel run is indistinguishable
// from a serial one — same protocol state, same Metrics, same observer
// stream, byte for byte.
//
// Determinism argument. Within one synchronous round, a node's work (drain
// its inbox, then activate once) depends only on (a) the node's own state
// at the start of the round and (b) the content of its inbox, which was
// sealed when the round began — a message sent during round r is never
// delivered in round r. Handlers own their node's state exclusively
// (cross-node shared state such as the semantics trace is internally
// synchronized and order-insensitive), so running nodes on
// different workers cannot change any node's outcome. The only
// order-sensitive effects are the append order of the next round's pending
// arena, the observer stream and the metrics fold; all three are buffered
// during the round and replayed in exactly the serial engine's order
// afterwards: deliveries and handler sends for node 0,1,…,n−1, then
// activation sends for node 0,1,…,n−1.
//
// Pooling rules: each worker appends sends and observations to arenas it
// owns exclusively for the round; a flat per-node record (nodeRec) maps
// every node to the ranges it produced, so the merge can walk nodes in
// serial order regardless of which worker ran them. All arenas and the
// record table are reused across rounds (allocation-free steady state
// apart from the per-round worker goroutines). Group functions must be
// pure — they are called concurrently.

// nodeRec records where one node's round effects live: the node ran on
// worker w, its deliver-phase sends are pws[w].sends[sendLo:actLo], its
// activation sends pws[w].sends[actLo:sendHi] and its observations
// pws[w].obs[obsLo:obsHi].
type nodeRec struct {
	w      int32
	sendLo int32
	actLo  int32
	sendHi int32
	obsLo  int32
	obsHi  int32
}

// parWorker is one worker's round-local state: a send arena and an
// observation arena appended to by the nodes it runs, plus its share of
// the round's metrics. The metric fields are merged commutatively after
// the join, so the totals equal the serial engine's regardless of how
// nodes were scheduled. parWorker implements the internal engine
// interface: a running node's Context is pointed at its worker for the
// duration of the node's turn.
type parWorker struct {
	n          int // network size snapshot, for the send bounds check
	sends      []envelope
	obs        []Delivery
	messages   int64
	totalBits  int64
	maxBits    int
	dropped    int64
	deliveries []int64
	roundLoad  []int
	panicVal   any
}

func (pw *parWorker) send(from, to NodeID, msg Message) {
	if int(to) < 0 || int(to) >= pw.n {
		panic("sim: send to unknown node")
	}
	pw.sends = append(pw.sends, envelope{from: from, to: to, msg: msg})
}

// SetParallel switches the engine to parallel stepping with the given
// worker count, in Spec.Workers' convention: 0 or 1 is serial, n > 1 a pool
// of n, negative one worker per core (GOMAXPROCS). Parallel stepping is
// byte-identical to serial stepping — traces, metrics and protocol state
// do not depend on the mode or the worker count. It requires handlers that
// confine their mutable state to their own node (true for every protocol
// in this repository; `go test -race ./internal/sim` checks it) and pure
// group functions.
func (e *SyncEngine) SetParallel(workers int) {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e.workers = workers
}

// Workers returns the configured worker count (1 = serial).
func (e *SyncEngine) Workers() int {
	if e.workers < 1 {
		return 1
	}
	return e.workers
}

// parChunk is how many node indices a worker claims per fetch; small
// enough to balance skewed per-node load, large enough to keep the shared
// counter cold.
const parChunk = 8

// stepParallel is Step's worker-pool body. The round's inbox was already
// sealed (seal in Step); stepParallel runs and activates every node,
// passive or not: it is the dense reference the serial path is tested
// against (an activation of a passive node does nothing). e.box/e.inbox
// are read-only for the round.
// Per-round buffers are sized here from the current node and group counts,
// so AddHandler between rounds — including after SetParallel — is safe.
func (e *SyncEngine) stepParallel() int {
	n := len(e.handlers)
	workers := e.workers
	if workers > n {
		workers = n
	}
	e.obsBuf = e.obsBuf[:0]
	if cap(e.recs) < n {
		e.recs = make([]nodeRec, n)
	}
	e.recs = e.recs[:n]
	for len(e.pws) < workers {
		e.pws = append(e.pws, parWorker{})
	}
	wantObs := e.observer != nil || e.batchObserver != nil
	round := e.metrics.Rounds
	for w := 0; w < workers; w++ {
		pw := &e.pws[w]
		pw.n = n
		clear(pw.sends) // release last round's message references
		pw.sends = pw.sends[:0]
		clear(pw.obs)
		pw.obs = pw.obs[:0]
		pw.messages, pw.totalBits, pw.maxBits, pw.dropped, pw.panicVal = 0, 0, 0, 0, nil
		if cap(pw.deliveries) < e.nGrp {
			pw.deliveries = make([]int64, e.nGrp)
			pw.roundLoad = make([]int, e.nGrp)
		}
		pw.deliveries = pw.deliveries[:e.nGrp]
		pw.roundLoad = pw.roundLoad[:e.nGrp]
		clear(pw.deliveries)
		clear(pw.roundLoad)
	}

	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int32, pw *parWorker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pw.panicVal = r
				}
			}()
			for {
				hi := int(cursor.Add(parChunk))
				lo := hi - parChunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				// The chunk's first inbox range, and where it starts.
				k := sort.Search(len(e.inbox), func(k int) bool { return int(e.inbox[k].to) >= lo })
				from := int32(0)
				if k > 0 {
					from = e.inbox[k-1].hi
				}
				for i := lo; i < hi; i++ {
					var box []boxedEnv
					if k < len(e.inbox) && int(e.inbox[k].to) == i {
						box = e.box[from:e.inbox[k].hi]
						from = e.inbox[k].hi
						k++
					}
					e.runNodePar(NodeID(i), box, pw, w, round, wantObs)
				}
			}
		}(int32(w), &e.pws[w])
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if v := e.pws[w].panicVal; v != nil {
			panic(v)
		}
	}

	// Deterministic merge: fold worker metrics (commutative), then replay
	// the buffered observer stream and send arenas in serial node order.
	delivered := 0
	for w := 0; w < workers; w++ {
		pw := &e.pws[w]
		delivered += int(pw.messages)
		e.metrics.Messages += pw.messages
		e.metrics.TotalBits += pw.totalBits
		if pw.maxBits > e.metrics.MaxMessageBit {
			e.metrics.MaxMessageBit = pw.maxBits
		}
		e.metrics.Dropped += pw.dropped
		for g := range pw.deliveries {
			e.metrics.Deliveries[g] += pw.deliveries[g]
			if l := pw.roundLoad[g]; l > 0 {
				e.countLoad(g, l)
			}
		}
	}
	if wantObs {
		for i := 0; i < n; i++ {
			r := &e.recs[i]
			for _, d := range e.pws[r.w].obs[r.obsLo:r.obsHi] {
				if e.observer != nil {
					e.observer(d)
				}
				if e.batchObserver != nil {
					e.obsBuf = append(e.obsBuf, d)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		r := &e.recs[i]
		for _, env := range e.pws[r.w].sends[r.sendLo:r.actLo] {
			e.post(env)
		}
	}
	for i := 0; i < n; i++ {
		r := &e.recs[i]
		for _, env := range e.pws[r.w].sends[r.actLo:r.sendHi] {
			e.post(env)
		}
	}
	e.finishRound()
	return delivered
}

// runNodePar executes one node's round on the calling worker: drain its
// sealed inbox box, then activate, appending sends and observations to
// the worker's arenas and recording the ranges in the node's record.
func (e *SyncEngine) runNodePar(id NodeID, box []boxedEnv, pw *parWorker, w int32, round int, wantObs bool) {
	i := int(id)
	rec := &e.recs[i]
	rec.w = w
	rec.sendLo = int32(len(pw.sends))
	rec.obsLo = int32(len(pw.obs))
	ctx := &e.contexts[i]
	ctx.engine = pw
	// Restore the context's engine binding before the worker moves on, so
	// driver-side sends between rounds (workload injection) behave exactly
	// as in serial mode.
	defer func() {
		rec.sendHi = int32(len(pw.sends))
		rec.obsHi = int32(len(pw.obs))
		ctx.engine = e
	}()

	if len(box) > 0 {
		g := e.group(id)
		for _, env := range box {
			bits := env.msg.Bits()
			pw.messages++
			pw.totalBits += int64(bits)
			if bits > pw.maxBits {
				pw.maxBits = bits
			}
			switch {
			case g >= 0 && g < len(pw.deliveries):
				pw.deliveries[g]++
				pw.roundLoad[g]++
			case e.strict:
				panic(fmt.Sprintf("sim: delivery to out-of-range congestion group %d (have %d groups); AddHandler must grow Deliveries", g, len(pw.deliveries)))
			default:
				pw.dropped++
			}
			if wantObs {
				pw.obs = append(pw.obs, Delivery{Round: round, From: env.from, To: id, Group: g, Bits: bits, Msg: env.msg})
			}
			e.handlers[i].HandleMessage(ctx, env.from, env.msg)
		}
	}
	rec.actLo = int32(len(pw.sends))
	e.handlers[i].Activate(ctx)
}
