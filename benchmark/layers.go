package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/netrun"
	"dpq/internal/prio"
	"dpq/internal/serve"
	"dpq/internal/sim"
	"dpq/internal/wire"
)

// A layer pass times tight loops over one layer's public functions in
// isolation. It says what the layer costs per operation; the traced pass
// says how often a workload pays it.

// layersOf lists the layers whose micro-pass is worth running for a
// workload: the ones the workload exercises. The others read 0 there.
var layersOf = map[string][]func(r *result, e env, budget time.Duration) error{
	"cluster-sat":     {layerClientproto, layerWALWrite, layerWire, layerNetrun},
	"cluster-open":    {layerClientproto, layerWALWrite, layerWire, layerNetrun},
	"single-sat":      {layerClientproto},
	"cluster-restart": {layerWALWrite, layerWALReplay},
}

// runLayers spends about seconds on the workload's layer passes.
func runLayers(r *result, workload string, e env, seconds float64) {
	passes := layersOf[workload]
	for _, pass := range passes {
		if err := pass(r, e, seconds2dur(seconds)/time.Duration(len(passes))); err != nil {
			r.problems = append(r.problems, "layer pass: "+err.Error())
		}
	}
}

// mallocs reads the process's allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeLoop runs batches of f until the budget is spent and returns the
// median time per call over the batches.
func timeLoop(budget time.Duration, batch int, f func()) time.Duration {
	var perCall sample
	deadline := time.Now().Add(budget)
	for perCall.n() < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		perCall.add(float64(time.Since(t0)) / float64(batch))
	}
	return time.Duration(perCall.median())
}

// layerClientproto frames and parses requests and responses through a
// buffer: the per-request cost both ends of a client connection pay.
func layerClientproto(r *result, e env, budget time.Duration) error {
	var buf bytes.Buffer
	req := &clientproto.Request{Op: clientproto.OpInsert, ReqID: 1<<32 | 7, Prio: 3, Payload: "12345678"}
	resp := &clientproto.Response{ReqID: 1<<32 | 7, Status: clientproto.StatusInserted, ID: 1<<40 | 9, Value: 1234}
	var err error
	reqNs := timeLoop(budget/2, 1000, func() {
		buf.Reset()
		if werr := clientproto.WriteRequest(&buf, req); werr != nil {
			err = werr
		}
		if _, rerr := clientproto.ReadRequest(&buf); rerr != nil {
			err = rerr
		}
	})
	respNs := timeLoop(budget/2, 1000, func() {
		buf.Reset()
		if werr := clientproto.WriteResponse(&buf, resp); werr != nil {
			err = werr
		}
		if _, rerr := clientproto.ReadResponse(&buf); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return fmt.Errorf("clientproto: %w", err)
	}
	const n = 10000
	m0 := mallocs()
	for i := 0; i < n; i++ {
		buf.Reset()
		clientproto.WriteRequest(&buf, req)
		clientproto.ReadRequest(&buf)
		buf.Reset()
		clientproto.WriteResponse(&buf, resp)
		clientproto.ReadResponse(&buf)
	}
	r.set("clientproto.req_ns", float64(reqNs))
	r.set("clientproto.resp_ns", float64(respNs))
	r.set("clientproto.allocs_per_req", float64(mallocs()-m0)/n)
	return nil
}

// walElem is the record the WAL passes append: what a benchmark insert logs.
func walElem(i int) prio.Element {
	return prio.Element{ID: prio.ElemID(1<<40 | uint64(i+1)), Prio: prio.Priority(i % 4), Payload: "12345678"}
}

// layerWALWrite times the log's write side: buffering an insert record,
// and the full append-to-durable wait of one record at a time, which is the
// floor under every acknowledged insert and ack of a durable cluster.
func layerWALWrite(r *result, e env, budget time.Duration) error {
	dir, err := os.MkdirTemp(e.tmp, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, _, err := serve.Open(dir)
	if err != nil {
		return err
	}
	defer w.Close()
	i := 0
	var last uint64
	appendNs := timeLoop(budget/2, 1000, func() {
		last = w.AppendInsert(walElem(i))
		i++
	})
	if err := w.WaitDurable(last); err != nil {
		return err
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal")); err == nil && i > 0 {
		r.set("wal.bytes_per_rec", float64(fi.Size())/float64(i))
	}
	var fsync sample
	deadline := time.Now().Add(budget / 2)
	for fsync.n() < 20 || time.Now().Before(deadline) {
		t0 := time.Now()
		seq := w.AppendInsert(walElem(i))
		i++
		if err := w.WaitDurable(seq); err != nil {
			return err
		}
		fsync.add(float64(time.Since(t0)) / float64(time.Millisecond))
	}
	r.set("wal.append_ns", float64(appendNs))
	r.set("wal.fsync_ms_p50", fsync.median())
	r.samples["wal.fsync_ms_p50"] = fsync.n()
	return nil
}

// replayRecords is the size of the log the replay pass recovers.
const replayRecords = 20000

// layerWALReplay times serve.Open on a directory holding a log and no
// snapshot: what a restarted daemon does before it may serve.
func layerWALReplay(r *result, e env, budget time.Duration) error {
	var perK sample
	deadline := time.Now().Add(budget)
	for perK.n() < 2 || time.Now().Before(deadline) {
		d, err := replayOnce(e)
		if err != nil {
			return err
		}
		perK.add(float64(d) / float64(time.Millisecond) / (replayRecords / 1000))
	}
	r.set("wal.replay_ms_per_krec", perK.median())
	r.samples["wal.replay_ms_per_krec"] = perK.n()
	return nil
}

// replayOnce writes a log of replayRecords inserts, closes it the way
// SIGKILL leaves it (no snapshot) and times its recovery.
func replayOnce(e env) (time.Duration, error) {
	dir, err := os.MkdirTemp(e.tmp, "replay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	w, _, err := serve.Open(dir)
	if err != nil {
		return 0, err
	}
	var last uint64
	for i := 0; i < replayRecords; i++ {
		last = w.AppendInsert(walElem(i))
	}
	if err := w.WaitDurable(last); err != nil {
		w.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	w2, recovered, err := serve.Open(dir)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	w2.Close()
	if len(recovered) != replayRecords {
		return 0, fmt.Errorf("wal replay recovered %d of %d records", len(recovered), replayRecords)
	}
	return d, nil
}

// layerWire encodes and decodes the registered samples of every message
// kind the daemons exchange.
func layerWire(r *result, e env, budget time.Duration) error {
	var msgs []sim.Message
	for _, name := range wire.RegisteredNames() {
		msgs = append(msgs, wire.Samples(name)...)
	}
	if len(msgs) == 0 {
		return fmt.Errorf("wire: no registered samples")
	}
	var encoded [][]byte
	total := 0
	for _, m := range msgs {
		b, err := wire.Marshal(m)
		if err != nil {
			return fmt.Errorf("wire: %w", err)
		}
		encoded = append(encoded, b)
		total += len(b)
	}
	var err error
	var dst []byte
	marshal := timeLoop(budget/2, 50, func() {
		for _, m := range msgs {
			if dst, err = wire.MarshalAppend(dst[:0], m); err != nil {
				return
			}
		}
	})
	unmarshal := timeLoop(budget/2, 50, func() {
		for _, b := range encoded {
			if _, uerr := wire.Unmarshal(b); uerr != nil {
				err = uerr
			}
		}
	})
	if err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	const rounds = 200
	m0 := mallocs()
	for i := 0; i < rounds; i++ {
		for j, m := range msgs {
			dst, _ = wire.MarshalAppend(dst[:0], m)
			wire.Unmarshal(encoded[j])
		}
	}
	n := float64(len(msgs))
	r.set("wire.marshal_ns_per_msg", float64(marshal)/n)
	r.set("wire.unmarshal_ns_per_msg", float64(unmarshal)/n)
	r.set("wire.bytes_per_msg", float64(total)/n)
	r.set("wire.allocs_per_msg", float64(mallocs()-m0)/(rounds*n))
	return nil
}

// echoHandler is the node of the netrun pass: the echo side returns every
// message to its sender, the driving side hands arrivals to a callback.
type echoHandler struct {
	echo   bool
	arrive func(ctx *sim.Context, from sim.NodeID, msg sim.Message)
}

func (h *echoHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if h.echo {
		ctx.Send(from, msg)
		return
	}
	h.arrive(ctx, from, msg)
}

func (h *echoHandler) Activate(*sim.Context) {}

// layerNetrun runs two engines in this process, one node each, joined by a
// loopback TCP connection: the round trip of one frame at a time, and the
// frame rate with a window of frames in flight.
func layerNetrun(r *result, e env, budget time.Duration) error {
	var lns []net.Listener
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	// The driving node's arrival callback changes between the two phases;
	// it runs on the engine's goroutine.
	var arrive atomic.Pointer[func(*sim.Context, sim.NodeID, sim.Message)]
	nop := func(*sim.Context, sim.NodeID, sim.Message) {}
	arrive.Store(&nop)
	driver := &echoHandler{arrive: func(ctx *sim.Context, from sim.NodeID, msg sim.Message) { (*arrive.Load())(ctx, from, msg) }}
	handlers := []sim.Handler{driver, &echoHandler{echo: true}}
	var engs []*netrun.Engine
	for p := 0; p < 2; p++ {
		eng, err := netrun.New(netrun.Config{
			Proc: p, Addrs: addrs, Listener: lns[p], Handlers: handlers,
			Owner: func(id sim.NodeID) int { return int(id) },
			Seed:  1, Tick: tick,
		})
		if err != nil {
			return err
		}
		defer eng.Close()
		engs = append(engs, eng)
	}
	for _, eng := range engs {
		eng.Start()
	}

	// Ping-pong: one frame in flight.
	got := make(chan struct{}, 1)
	one := func(*sim.Context, sim.NodeID, sim.Message) { got <- struct{}{} }
	arrive.Store(&one)
	var rtt sample
	deadline := time.Now().Add(budget / 2)
	for seq := uint64(1); rtt.n() < 20 || time.Now().Before(deadline); seq++ {
		t0 := time.Now()
		engs[0].Send(0, 1, &sim.TransportAck{Seq: seq})
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("netrun: echo lost")
		}
		rtt.add(float64(time.Since(t0)) / float64(time.Millisecond))
	}
	// The first exchanges include the dial; the median does not care.
	r.set("netrun.pingpong_rtt_ms", rtt.median())
	r.samples["netrun.pingpong_rtt_ms"] = rtt.n()

	// Flood: a window of frames kept in flight by re-sending every echo.
	const window = 512
	var stop atomic.Bool
	resend := func(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
		if !stop.Load() {
			ctx.Send(from, msg)
		}
	}
	arrive.Store(&resend)
	m0 := engs[0].Metrics().Messages + engs[1].Metrics().Messages
	t0 := time.Now()
	for i := 0; i < window; i++ {
		engs[0].Send(0, 1, &sim.TransportAck{Seq: uint64(i)})
	}
	time.Sleep(budget / 2)
	m1 := engs[0].Metrics().Messages + engs[1].Metrics().Messages
	d := time.Since(t0)
	stop.Store(true)
	r.set("netrun.flood_msgs_per_s", float64(m1-m0)/d.Seconds())
	return nil
}
