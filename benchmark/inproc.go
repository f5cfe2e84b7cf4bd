package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/ldb"
	"dpq/internal/netrun"
	"dpq/internal/prio"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/serve"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// daemonSeed is dpqd's default -seed: the in-process replica builds the
// same heap the daemons do.
const daemonSeed = 1

// inproc is a cluster rebuilt inside this process from the constructors
// cmd/dpqd uses — skeap.New/seap.New, serve.New*Heap, sim.WrapAllReliable,
// netrun.New, serve.New, Server.Serve — so that the seams between the
// layers can be wrapped. With a tracer, every seam reports to it; without
// one nothing is wrapped, which gives the baseline for the tracing overhead.
type inproc struct {
	spec        clusterSpec
	dir         string
	clientAddrs []string
	daemons     []*inprocDaemon
	tr          *tracer
	started     time.Time
}

// inprocDaemon is the in-process analog of one dpqd process.
type inprocDaemon struct {
	proc  int
	eng   *netrun.Engine
	srv   *serve.Server
	fwd   *serve.AckForwarder
	ln    net.Listener
	outer *handlerClock // around the reliable transport: everything
	inner *handlerClock // inside it: the protocol handlers, by message kind

	fwdMu  sync.Mutex
	fwdRTT sample // forwarded acks: Forward call → done, ms
	writes atomic.Int64
	wbytes atomic.Int64
	resps  atomic.Int64
}

// startInproc builds and starts the cluster. Unlike a dpqd started on an
// empty WAL directory it does not defer recovery, so there is no cold-start
// wait; the traced pass measures steady state, not set-up.
func startInproc(spec clusterSpec, tmpRoot string, tr *tracer) (*inproc, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "inproc-")
	if err != nil {
		return nil, err
	}
	c := &inproc{spec: spec, dir: dir, tr: tr, started: time.Now()}
	var peerLns, clientLns []net.Listener
	var peerAddrs []string
	fail := func(err error) (*inproc, error) {
		for _, ln := range append(peerLns, clientLns...) {
			ln.Close()
		}
		c.stop()
		return nil, err
	}
	for p := 0; p < spec.procs; p++ {
		pl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		peerLns = append(peerLns, pl)
		cl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		clientLns = append(clientLns, cl)
		peerAddrs = append(peerAddrs, pl.Addr().String())
		c.clientAddrs = append(c.clientAddrs, cl.Addr().String())
	}
	for p := 0; p < spec.procs; p++ {
		d, err := c.startDaemon(p, peerAddrs, peerLns[p], clientLns[p])
		if err != nil {
			return fail(err)
		}
		c.daemons = append(c.daemons, d)
	}
	return c, nil
}

// startDaemon mirrors cmd/dpqd's main for one process of the cluster.
func (c *inproc) startDaemon(proc int, peerAddrs []string, peerLn, clientLn net.Listener) (*inprocDaemon, error) {
	spec := c.spec
	d := &inprocDaemon{proc: proc, ln: clientLn}
	var heap serve.ProtocolHeap
	switch spec.proto {
	case "skeap":
		heap = serve.NewSkeapHeap(skeap.New(skeap.Config{N: spec.hosts, P: spec.prios, Seed: daemonSeed}), spec.prios)
	case "seap":
		heap = serve.NewSeapHeap(seap.New(seap.Config{N: spec.hosts, PrioBound: uint64(spec.prios), Seed: daemonSeed, SeqConsistent: true}), uint64(spec.prios))
	default:
		return nil, fmt.Errorf("unknown protocol %q", spec.proto)
	}
	hostOwner := make([]int, spec.hosts)
	var localHosts []int
	for p := 0; p < spec.procs; p++ {
		for h := p * spec.hosts / spec.procs; h < (p+1)*spec.hosts/spec.procs; h++ {
			hostOwner[h] = p
			if p == proc {
				localHosts = append(localHosts, h)
			}
		}
	}
	nodeOwner := func(id sim.NodeID) int { return hostOwner[ldb.HostOf(id)] }

	var ownerOf func(prio.ElemID) int
	var peerAck func(int, prio.ElemID, func(error))
	if spec.procs > 1 {
		d.fwd = serve.NewAckForwarder(c.clientAddrs)
		ownerOf = func(id prio.ElemID) int { return int(uint64(id)>>40) - 1 }
		peerAck = d.fwd.Forward
		if c.tr != nil {
			peerAck = func(owner int, id prio.ElemID, done func(error)) {
				t0 := time.Now()
				d.fwd.Forward(owner, id, func(err error) {
					rtt := time.Since(t0)
					d.fwdMu.Lock()
					d.fwdRTT.add(float64(rtt) / float64(time.Millisecond))
					d.fwdMu.Unlock()
					done(err)
				})
			}
		}
	}

	protoHandlers := heap.Handlers()
	if c.tr != nil {
		d.inner, d.outer = newHandlerClock(1), newHandlerClock(1)
		protoHandlers = timeHandlers(protoHandlers, d.inner, true)
	}
	handlers, transports := sim.WrapAllReliable(protoHandlers, sim.DefaultTransportConfig())
	if c.tr != nil {
		handlers = timeHandlers(handlers, d.outer, false)
	}
	groups, group := heap.Overlay().Group()
	anchorProc := nodeOwner(heap.Overlay().Anchor)
	var rec *serve.Reconciler
	hb := 100 * time.Millisecond // dpqd's default -heartbeat
	if spec.procs == 1 {
		hb = 0
	}
	eng, err := netrun.New(netrun.Config{
		Proc:           proc,
		Addrs:          peerAddrs,
		Listener:       peerLn,
		Handlers:       handlers,
		Owner:          nodeOwner,
		Seed:           daemonSeed + 1,
		Groups:         groups,
		Group:          group,
		Tick:           tick,
		HeartbeatEvery: hb,
		SuspectAfter:   suspectAfter,
		DownAfter:      downAfter,
		OnPeerState: func(p int, state netrun.PeerState) {
			if rec == nil {
				return
			}
			switch state {
			case netrun.PeerDown:
				rec.PeerDown(p)
			case netrun.PeerUp:
				d.fwd.SetPeerDown(p, false)
			}
		},
		OnPeerRejoin: func(p int) {
			for i, t := range transports {
				if nodeOwner(sim.NodeID(i)) != proc {
					continue
				}
				for v := range transports {
					if nodeOwner(sim.NodeID(v)) == p {
						t.ResetPeer(sim.NodeID(v))
					}
				}
			}
			if rec != nil {
				go rec.PeerRejoined(p)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	d.eng = eng

	var idCtr atomic.Uint64
	var degraded func() bool
	if spec.procs > 1 {
		degraded = eng.AnyPeerDown
	}
	walDir := ""
	if spec.wal {
		walDir = fmt.Sprintf("%s/wal%d", c.dir, proc)
	}
	var sheap serve.Heap = heap
	if c.tr != nil {
		th := tracedHeap{Heap: heap, tr: c.tr, daemon: proc}
		sheap = th
		if rh, ok := heap.(serve.ResettableHeap); ok {
			sheap = tracedResettableHeap{th, rh}
		}
	}
	srv, err := serve.New(serve.Config{
		Heap:          sheap,
		Hosts:         localHosts,
		NextID:        func() prio.ElemID { return prio.ElemID(uint64(proc+1)<<40 | idCtr.Add(1)) },
		WALDir:        walDir,
		SnapshotEvery: 10 * time.Second, // dpqd's default -snapshot-every
		Proc:          proc,
		Owner:         ownerOf,
		PeerAck:       peerAck,
		Degraded:      degraded,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	d.srv = srv
	if rh, ok := heap.(serve.ResettableHeap); ok && d.fwd != nil {
		rec = &serve.Reconciler{
			Server: srv, Heap: rh, Fwd: d.fwd,
			AnchorLocal: anchorProc == proc,
			Peers:       c.clientAddrs,
			Proc:        proc,
		}
		d.fwd.OnParkFlush = func(owner int, id prio.ElemID, err error) { srv.SettleParked(id, err) }
	}
	eng.Start()
	ln := clientLn
	if c.tr != nil {
		ln = &tracedListener{Listener: clientLn, d: d, tr: c.tr, hosts: localHosts}
	}
	go srv.Serve(ln)
	return d, nil
}

// stop drains and shuts every daemon down and removes the WAL directories.
// It reports whether every daemon drained.
func (c *inproc) stop() bool {
	drained := true
	for _, d := range c.daemons {
		d.ln.Close()
		d.srv.Drain()
	}
	for _, d := range c.daemons {
		deadline := time.Now().Add(10 * time.Second)
		for !d.srv.Quiesced() && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		st, err := d.srv.Shutdown()
		if d.fwd != nil {
			d.fwd.Close()
		}
		d.eng.Close()
		if !d.srv.Quiesced() || st.InFlight != 0 || err != nil {
			drained = false
		}
	}
	c.daemons = nil
	os.RemoveAll(c.dir)
	return drained
}

// cpu is this process's CPU time: generator and daemons together, since
// they share the process. Only differences between the traced and the
// untraced replica are meaningful.
func (c *inproc) cpu() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// tracedHeap is the heap.call seam: it reports each Insert and Delete that
// serve issues. Reinserts (recovery, redelivery) answer to no request.
type tracedHeap struct {
	serve.Heap
	tr     *tracer
	daemon int
}

func (h tracedHeap) Insert(host int, id prio.ElemID, p uint64, payload string) *semantics.Op {
	var want uint64
	if len(payload) == 8 {
		want = binary.BigEndian.Uint64([]byte(payload))
	}
	h.tr.heapCall(hostKey{h.daemon, host}, want, time.Now())
	return h.Heap.Insert(host, id, p, payload)
}

func (h tracedHeap) Delete(host int) *semantics.Op {
	h.tr.heapCall(hostKey{h.daemon, host}, 0, time.Now())
	return h.Heap.Delete(host)
}

// tracedResettableHeap keeps the reset protocol visible through the seam:
// serve looks for it with a type assertion.
type tracedResettableHeap struct {
	tracedHeap
	serve.ResettableHeap
}

// tracedListener is the serve.read / serve.write seam: it hands Serve
// connections that parse the frames passing through them. Serve pins the
// k-th accepted connection to its k-th host round-robin; the listener
// counts along.
type tracedListener struct {
	net.Listener
	d        *inprocDaemon
	tr       *tracer
	hosts    []int
	accepted int
}

func (l *tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	host := l.hosts[l.accepted%len(l.hosts)]
	l.accepted++
	return &tracedConn{Conn: conn, d: l.d, tr: l.tr, key: hostKey{l.d.proc, host}}, nil
}

// tracedConn sees the bytes serve reads and writes and cuts them into
// clientproto frames. Serve reads a connection from one goroutine and
// writes it from another, so the two directions keep separate state.
type tracedConn struct {
	net.Conn
	d   *inprocDaemon
	tr  *tracer
	key hostKey
	in  frameCutter
	out frameCutter
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.in.feed(p[:n], func(body []byte) {
			// Request body: u8 op, u64 request id, ...
			if len(body) >= 9 {
				op := body[0]
				c.tr.serveRead(c.key, binary.BigEndian.Uint64(body[1:9]),
					op == clientproto.OpInsert || op == clientproto.OpDelete, now)
			}
		})
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	now := time.Now()
	c.d.writes.Add(1)
	c.d.wbytes.Add(int64(len(p)))
	c.out.feed(p, func(body []byte) {
		// Response body: u64 request id, ...
		if len(body) >= 8 {
			c.d.resps.Add(1)
			c.tr.serveWrite(binary.BigEndian.Uint64(body[:8]), now)
		}
	})
	return c.Conn.Write(p)
}

// frameCutter reassembles u32-length-prefixed frames from a byte stream
// that arrives in arbitrary pieces.
type frameCutter struct{ buf []byte }

func (f *frameCutter) feed(p []byte, frame func(body []byte)) {
	f.buf = append(f.buf, p...)
	for len(f.buf) >= 4 {
		n := int(binary.BigEndian.Uint32(f.buf[:4]))
		if len(f.buf) < 4+n {
			break
		}
		frame(f.buf[4 : 4+n])
		f.buf = f.buf[4+n:]
	}
	if len(f.buf) == 0 {
		f.buf = nil // let a burst's buffer go
	}
}
