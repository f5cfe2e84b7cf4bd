package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/ldb"
	"dpq/internal/netrun"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// The partial-crash harness: a real 3-process skeap cluster over loopback
// TCP, each daemon with its own WAL, ack forwarder, failure detector and
// reconciler — the same wiring as cmd/dpqd. One non-anchor daemon is
// Kill()ed under concurrent load, the survivors keep serving locally-owned
// traffic degraded, the victim restarts into reconciliation, and the
// drained cluster must show zero acknowledged loss and zero
// double-delivery against the client-side ground truth, the pre-crash
// merged trace against the sequential-consistency oracle, and the final
// merged live traces against PendingSet = ∅.

const (
	pcHosts = 6
	pcProcs = 3
	pcPrios = 3
	pcSeed  = 11
)

// tlog forwards to t.Logf until the test body finishes; reconciliation
// goroutines may outlive the assertions.
type tlog struct {
	mu   sync.Mutex
	done bool
	t    *testing.T
}

func (l *tlog) logf(f string, a ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.done {
		l.t.Logf(f, a...)
	}
}

// pcluster is the fixed cluster topology: addresses and WAL directories
// survive daemon restarts.
type pcluster struct {
	t           *testing.T
	lg          *tlog
	peerAddrs   []string
	clientAddrs []string
	walDirs     []string
	hostOwner   []int
	anchorProc  int
	ds          []*pdaemon
	gnd         *ground
}

// pdaemon is one daemon stack, the in-process analog of a dpqd process.
type pdaemon struct {
	proc int
	heap *skeap.Heap
	eng  *netrun.Engine
	srv  *Server
	fwd  *AckForwarder
	rec  *Reconciler
	ln   net.Listener
	dead bool
}

func newPCluster(t *testing.T) *pcluster {
	c := &pcluster{t: t, lg: &tlog{t: t}, ds: make([]*pdaemon, pcProcs)}
	t.Cleanup(func() {
		c.lg.mu.Lock()
		c.lg.done = true
		c.lg.mu.Unlock()
	})
	c.hostOwner = make([]int, pcHosts)
	for p := 0; p < pcProcs; p++ {
		for h := p * pcHosts / pcProcs; h < (p+1)*pcHosts/pcProcs; h++ {
			c.hostOwner[h] = p
		}
	}
	// Fixed addresses: restarted daemons rebind the same ports, exactly
	// like a daemon restarted from the same flags.
	var peerLns, clientLns []net.Listener
	for p := 0; p < pcProcs; p++ {
		pl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peerLns = append(peerLns, pl)
		clientLns = append(clientLns, cl)
		c.peerAddrs = append(c.peerAddrs, pl.Addr().String())
		c.clientAddrs = append(c.clientAddrs, cl.Addr().String())
		c.walDirs = append(c.walDirs, t.TempDir())
	}
	probe := skeap.New(skeap.Config{N: pcHosts, P: pcPrios, Seed: pcSeed})
	c.anchorProc = c.hostOwner[ldb.HostOf(probe.Overlay().Anchor)]
	for p := 0; p < pcProcs; p++ {
		c.ds[p] = c.startDaemon(p, peerLns[p], clientLns[p], false)
	}
	t.Cleanup(func() {
		for _, d := range c.ds {
			if d != nil && !d.dead {
				d.kill()
			}
		}
	})
	return c
}

func (c *pcluster) startDaemon(proc int, peerLn, clientLn net.Listener, restart bool) *pdaemon {
	t := c.t
	t.Helper()
	h := skeap.New(skeap.Config{N: pcHosts, P: pcPrios, Seed: pcSeed})
	groups, group := h.Overlay().Group()
	nodeOwner := func(id sim.NodeID) int { return c.hostOwner[ldb.HostOf(id)] }
	fwd := NewAckForwarder(c.clientAddrs)
	var rec *Reconciler
	if peerLn == nil {
		var err error
		if peerLn, err = net.Listen("tcp", c.peerAddrs[proc]); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := netrun.New(netrun.Config{
		Proc:           proc,
		Addrs:          c.peerAddrs,
		Listener:       peerLn,
		Handlers:       h.Handlers(),
		Owner:          nodeOwner,
		Seed:           pcSeed + 1,
		Groups:         groups,
		Group:          group,
		Tick:           200 * time.Microsecond,
		HeartbeatEvery: 20 * time.Millisecond,
		SuspectAfter:   80 * time.Millisecond,
		DownAfter:      160 * time.Millisecond,
		OnPeerState: func(p int, st netrun.PeerState) {
			c.lg.logf("daemon %d sees peer %d %v", proc, p, st)
			if rec == nil {
				return
			}
			switch st {
			case netrun.PeerDown:
				rec.PeerDown(p)
			case netrun.PeerUp:
				fwd.SetPeerDown(p, false)
			}
		},
		OnPeerRejoin: func(p int) {
			c.lg.logf("daemon %d sees peer %d rejoin", proc, p)
			if rec != nil {
				go rec.PeerRejoined(p)
			}
		},
		Logf: func(f string, a ...any) { c.lg.logf("netrun[%d]: "+f, append([]any{proc}, a...)...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []int
	for hidx, p := range c.hostOwner {
		if p == proc {
			hosts = append(hosts, hidx)
		}
	}
	ph := NewSkeapHeap(h, pcPrios)
	idCtr := new(atomic.Uint64)
	srv, err := New(Config{
		Heap:   ph,
		Hosts:  hosts,
		NextID: func() prio.ElemID { return prio.ElemID(uint64(proc+1)<<40 | idCtr.Add(1)) },
		WALDir: c.walDirs[proc],
		// Leases must never expire on their own: every redelivery in this
		// test has to come from reconciliation, not timeouts.
		LeaseTTL:      time.Hour,
		Proc:          proc,
		Owner:         func(id prio.ElemID) int { return int(uint64(id)>>40) - 1 },
		PeerAck:       fwd.Forward,
		Degraded:      eng.AnyPeerDown,
		DeferRecovery: restart,
		Logf:          func(f string, a ...any) { c.lg.logf("serve[%d]: "+f, append([]any{proc}, a...)...) },
	})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	if maxID := uint64(srv.MaxRecoveredID()); maxID>>40 == uint64(proc+1) {
		idCtr.Store(maxID & (1<<40 - 1))
	}
	rec = &Reconciler{
		Server:           srv,
		Heap:             ph.(ResettableHeap),
		Fwd:              fwd,
		AnchorLocal:      c.anchorProc == proc,
		Peers:            c.clientAddrs,
		Proc:             proc,
		SettleDelay:      200 * time.Millisecond,
		ResetTimeout:     10 * time.Second,
		ColdStartTimeout: 3 * time.Second,
		Logf:             func(f string, a ...any) { c.lg.logf(f, a...) },
	}
	fwd.OnParkFlush = func(owner int, id prio.ElemID, err error) { srv.SettleParked(id, err) }
	eng.Start()
	if restart {
		go rec.RecoverAsRestarter()
	}
	if clientLn == nil {
		var err error
		if clientLn, err = net.Listen("tcp", c.clientAddrs[proc]); err != nil {
			t.Fatal(err)
		}
	}
	go srv.Serve(clientLn)
	return &pdaemon{proc: proc, heap: h, eng: eng, srv: srv, fwd: fwd, rec: rec, ln: clientLn}
}

// kill tears one daemon down the unfriendly way: no drain, no snapshot.
func (d *pdaemon) kill() {
	d.dead = true
	d.ln.Close()
	d.srv.Kill()
	d.fwd.Close()
	d.eng.Close()
}

// pclient is an error-returning synchronous clientproto session (the
// t.Fatal-based testClient cannot be used from worker goroutines).
type pclient struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	reqID uint64
}

func pdial(addr string) (*pclient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &pclient{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

func (c *pclient) do(req *clientproto.Request) (*clientproto.Response, error) {
	c.reqID++
	req.ReqID = c.reqID
	if err := clientproto.WriteRequest(c.bw, req); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := clientproto.ReadResponse(c.br)
	if err != nil {
		return nil, err
	}
	if resp.ReqID != req.ReqID {
		return nil, fmt.Errorf("response for req %d, want %d", resp.ReqID, req.ReqID)
	}
	return resp, nil
}

// ground is the client-side ground truth: acknowledged inserts (durable,
// must never be lost) and acknowledged consumptions (settled, must never
// be delivered again).
type ground struct {
	mu       sync.Mutex
	inserted map[uint64]uint64 // id → priority as acknowledged
	consumed map[uint64]bool
}

func newGround() *ground {
	return &ground{inserted: map[uint64]uint64{}, consumed: map[uint64]bool{}}
}

func (g *ground) addInserted(id, prio uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inserted[id] = prio
}

// markConsumed records a settled delivery; a second settle of the same id
// is the double-delivery the harness exists to catch.
func (g *ground) markConsumed(id uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.consumed[id] {
		return fmt.Errorf("element %d consumed twice", id)
	}
	g.consumed[id] = true
	return nil
}

func (g *ground) want() map[uint64]bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	w := map[uint64]bool{}
	for id := range g.inserted {
		if !g.consumed[id] {
			w[id] = true
		}
	}
	return w
}

// settleAck drives one ack to a definitive answer, retrying through the
// outage window (parked acks answer StatusUnavailable until the owner
// recovers and the flush settles them).
func settleAck(cl *pclient, id uint64, deadline time.Time) error {
	for {
		resp, err := cl.do(&clientproto.Request{Op: clientproto.OpAck, ID: id})
		if err != nil {
			return err
		}
		if resp.Status == clientproto.StatusAcked {
			return nil
		}
		if !resp.Retryable() {
			return fmt.Errorf("ack of %d: %v", id, resp.Err())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ack of %d still unavailable at deadline", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// worker hammers one daemon with insert → delete → ack rounds until stop
// closes, tolerating degraded-mode rejections and settling every delivery
// it takes before returning.
func worker(addr string, g *ground, stop <-chan struct{}) error {
	cl, err := pdial(addr)
	if err != nil {
		return err
	}
	defer cl.conn.Close()
	deadline := time.Now().Add(90 * time.Second)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for !stopped() {
		// Two inserts per consumed element: the pending set grows under
		// load, so the crash always has a substantial population to lose.
		for k := 0; k < 2; k++ {
			resp, err := cl.do(&clientproto.Request{Op: clientproto.OpInsert, Prio: uint64(cl.reqID % pcPrios), Payload: "w"})
			if err != nil {
				return err
			}
			if resp.Status != clientproto.StatusInserted {
				return fmt.Errorf("insert: %v", resp.Err())
			}
			g.addInserted(resp.ID, resp.Prio)
		}
		var resp *clientproto.Response
		var err error
		for {
			resp, err = cl.do(&clientproto.Request{Op: clientproto.OpDelete})
			if err != nil {
				return err
			}
			if resp.Retryable() {
				// Degraded mode: the cluster cannot serve deletes until the
				// dead peer is back. Back off; give up the round if the test
				// is stopping.
				if stopped() {
					break
				}
				time.Sleep(25 * time.Millisecond)
				continue
			}
			break
		}
		switch resp.Status {
		case clientproto.StatusBottom:
			// Every element is momentarily out under other workers' rounds.
		case clientproto.StatusElem:
			// The delivery MUST be settled before the worker may exit, or
			// its lease would strand the element (TTL is an hour).
			if err := settleAck(cl, resp.ID, deadline); err != nil {
				return err
			}
			if err := g.markConsumed(resp.ID); err != nil {
				return err
			}
		default:
			if resp.Err() != nil {
				return fmt.Errorf("delete: %v", resp.Err())
			}
		}
	}
	return nil
}

// runWorkers runs one worker per listed daemon for d, then stops them and
// fails the test on any worker error.
func (c *pcluster) runWorkers(procs []int, d time.Duration) {
	c.t.Helper()
	stop := make(chan struct{})
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			errs[i] = worker(c.clientAddrs[p], c.g(), stop)
		}(i, p)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			c.t.Fatalf("worker on daemon %d: %v", procs[i], err)
		}
	}
}

func (c *pcluster) g() *ground { return c.gnd }

func TestPartialCrashKillOneOfThree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster harness")
	}
	c := newPCluster(t)
	c.gnd = newGround()
	victim := (c.anchorProc + 1) % pcProcs
	t.Logf("anchor daemon %d, victim daemon %d", c.anchorProc, victim)

	// Stage A: concurrent load on all three daemons, then quiesce and hold
	// the whole history against the sequential-consistency oracle and the
	// trace-derived pending set.
	c.runWorkers([]int{0, 1, 2}, 600*time.Millisecond)
	for _, d := range c.ds {
		waitQuiesce(t, d.srv)
	}
	merged := semantics.Merge(c.ds[0].heap.Trace(), c.ds[1].heap.Trace(), c.ds[2].heap.Trace())
	if rep := semantics.CheckSequentialConsistency(merged, semantics.FIFO); !rep.Ok() {
		t.Fatalf("pre-crash merged trace inconsistent:\n%s", rep.Error())
	}
	wantA := c.gnd.want()
	pend := semantics.PendingSet(merged)
	if len(pend) != len(wantA) {
		t.Fatalf("trace-derived pending set has %d elements, client-derived has %d", len(pend), len(wantA))
	}
	for id := range wantA {
		if _, ok := pend[prio.ElemID(id)]; !ok {
			t.Fatalf("element %d missing from the trace-derived pending set", id)
		}
	}
	t.Logf("stage A: %d inserted, %d consumed, %d pending",
		len(c.gnd.inserted), len(c.gnd.consumed), len(wantA))

	// Stage B: survivors keep loading while the victim dies mid-flight.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	survivors := []int{}
	for p := 0; p < pcProcs; p++ {
		if p != victim {
			survivors = append(survivors, p)
		}
	}
	errs := make([]error, len(survivors))
	for i, p := range survivors {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			errs[i] = worker(c.clientAddrs[p], c.gnd, stop)
		}(i, p)
	}
	time.Sleep(300 * time.Millisecond)
	t.Log("killing victim")
	// The victim's first-incarnation trace dies with the process; keep a
	// handle for the final whole-history accounting below.
	victimTrace1 := c.ds[victim].heap.Trace()
	c.ds[victim].kill()

	// Survivors must grade the victim down.
	detectDeadline := time.Now().Add(10 * time.Second)
	for _, p := range survivors {
		for !c.ds[p].eng.PeerIsDown(victim) {
			if time.Now().After(detectDeadline) {
				t.Fatal("survivors never marked the victim down")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Degraded serving: locally-owned inserts land durably with a sentinel
	// serialization value; deletes are refused retryably.
	for _, p := range survivors {
		cl, err := pdial(c.clientAddrs[p])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.do(&clientproto.Request{Op: clientproto.OpInsert, Prio: 1, Payload: "degraded"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != clientproto.StatusInserted {
			t.Fatalf("degraded insert on daemon %d: %v", p, resp.Err())
		}
		c.gnd.addInserted(resp.ID, resp.Prio)
		resp, err = cl.do(&clientproto.Request{Op: clientproto.OpDelete})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != clientproto.StatusUnavailable || !resp.Retryable() {
			t.Fatalf("degraded delete on daemon %d: status %d, want retryable StatusUnavailable", p, resp.Status)
		}
		cl.conn.Close()
	}
	if st := c.ds[survivors[0]].srv.Stats(); st.DegradedInserts == 0 || st.Unavailable == 0 {
		t.Fatalf("survivor stats show no degraded serving: %+v", st)
	}

	// Restart the victim into reconciliation, under continuing load.
	t.Log("restarting victim")
	c.ds[victim] = c.startDaemon(victim, nil, nil, true)

	// Reconciliation completes when every daemon applied the cluster reset.
	resetDeadline := time.Now().Add(20 * time.Second)
	for _, d := range c.ds {
		for d.heap.LastResetFloor() == 0 {
			if time.Now().After(resetDeadline) {
				t.Fatal("cluster reset never reached every daemon")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	time.Sleep(500 * time.Millisecond) // let re-injection and flushes land
	close(stop)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stage B worker on daemon %d: %v", survivors[i], err)
		}
	}

	// Drain: exactly the acknowledged-but-unconsumed elements come out,
	// each once, across all three daemons.
	want := c.gnd.want()
	t.Logf("draining %d pending elements", len(want))
	cls := make([]*pclient, pcProcs)
	for p := range cls {
		cl, err := pdial(c.clientAddrs[p])
		if err != nil {
			t.Fatal(err)
		}
		defer cl.conn.Close()
		cls[p] = cl
	}
	got := map[uint64]bool{}
	drainDeadline := time.Now().Add(60 * time.Second)
	for len(got) < len(want) {
		if time.Now().After(drainDeadline) {
			missing := []uint64{}
			for id := range want {
				if !got[id] {
					missing = append(missing, id)
				}
			}
			t.Fatalf("drain stalled with %d/%d elements; missing %v", len(got), len(want), missing)
		}
		progress := false
		for _, cl := range cls {
			resp, err := cl.do(&clientproto.Request{Op: clientproto.OpDelete})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Retryable() || resp.Status == clientproto.StatusBottom {
				continue
			}
			if resp.Status != clientproto.StatusElem {
				t.Fatalf("drain delete: %v", resp.Err())
			}
			if got[resp.ID] {
				t.Fatalf("element %d delivered twice during the drain", resp.ID)
			}
			if !want[resp.ID] {
				t.Fatalf("element %d delivered but not pending (lost ack or resurrected element)", resp.ID)
			}
			if err := settleAck(cl, resp.ID, drainDeadline); err != nil {
				t.Fatal(err)
			}
			got[resp.ID] = true
			progress = true
		}
		if !progress {
			time.Sleep(20 * time.Millisecond)
		}
	}
	// Empty for good: every daemon answers ⊥ once the cluster quiesces.
	for _, d := range c.ds {
		waitQuiesce(t, d.srv)
	}
	for p, cl := range cls {
		resp, err := cl.do(&clientproto.Request{Op: clientproto.OpDelete})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != clientproto.StatusBottom {
			t.Fatalf("daemon %d not empty after the drain: status %d", p, resp.Status)
		}
	}
	for p, d := range c.ds {
		if pending := d.srv.Stats().Pending; pending != 0 {
			t.Fatalf("daemon %d still has %d pending elements", p, pending)
		}
	}

	// Final oracle: the victim's first incarnation died with its process,
	// so the global serial replay is checked per complete phase (stage A
	// above). Across the crash, the merged live traces must stay locally
	// consistent — per-node serialization values strictly increase through
	// the reset (the victim's two incarnations reuse node indices, so only
	// its live trace joins this merge; its first incarnation was already
	// checked at the stage A barrier). The whole-history merge, first
	// incarnation included, must account for every element: pending set
	// empty after the full drain.
	live := semantics.Merge(c.ds[0].heap.Trace(), c.ds[1].heap.Trace(), c.ds[2].heap.Trace())
	if rep := semantics.CheckLocalConsistency(live); !rep.Ok() {
		t.Fatalf("post-reconciliation merged live traces locally inconsistent:\n%s", rep.Error())
	}
	history := semantics.Merge(live, victimTrace1)
	if pend := semantics.PendingSet(history); len(pend) != 0 {
		t.Fatalf("post-drain trace-derived pending set not empty: %v", pend)
	}
	t.Logf("final: %d inserted, %d consumed, %d drained",
		len(c.gnd.inserted), len(c.gnd.consumed), len(got))
}
