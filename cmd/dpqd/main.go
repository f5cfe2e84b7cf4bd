// Command dpqd hosts one shard of a distributed priority queue: it runs
// the virtual nodes of the hosts assigned to this process on the netrun
// TCP engine (peer daemons run the rest) and serves the clientproto
// protocol through the internal/serve layer — lease-based DeleteMin with
// Ack/Nack, write-ahead durability of the pending set, and admission
// control. Operations are buffered into the protocol's batches exactly
// like simulator injections; a client gets its response when the heap
// protocol completes the operation, so pipelined clients are batched per
// the paper's batch model.
//
// Every client connection is pinned to one local host. Requests of a
// connection are injected in arrival order, so a connection's responses
// carry monotonically increasing serialization values (the property
// cmd/dpqload verifies as local consistency).
//
// A 2-process loopback cluster with durability:
//
//	dpqd -proc 0 -peers 127.0.0.1:9101,127.0.0.1:9102 -client 127.0.0.1:9201 \
//	     -clients 127.0.0.1:9201,127.0.0.1:9202 -wal /tmp/d0 &
//	dpqd -proc 1 -peers 127.0.0.1:9101,127.0.0.1:9102 -client 127.0.0.1:9202 \
//	     -clients 127.0.0.1:9201,127.0.0.1:9202 -wal /tmp/d1 &
//	dpqload -servers 127.0.0.1:9201,127.0.0.1:9202 -quick
//
// With -wal set, a daemon that dies (even SIGKILL) recovers its pending
// set on restart: acknowledged inserts survive, unacked leased elements
// are redelivered. SIGTERM/SIGINT drain in-flight operations, snapshot
// the pending set, flush the observability outputs (-trace-jsonl traces
// are per-daemon and per-node round-monotone: validate with `tracecheck
// -per-node`) and exit 0.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dpq/internal/ldb"
	"dpq/internal/netrun"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/serve"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

func main() {
	proc := flag.Int("proc", 0, "this daemon's index into -peers")
	peers := flag.String("peers", "", "comma-separated netrun addresses, one per daemon (required)")
	clientAddr := flag.String("client", "", "client protocol listen address (required)")
	clients := flag.String("clients", "", "comma-separated client addresses of every daemon, in -peers order (required with -wal in a multi-daemon cluster: acks replicate to the owning daemon's log)")
	hosts := flag.Int("hosts", 4, "total hosts across the whole cluster")
	prios := flag.Int("prios", 3, "skeap: |𝒫|; seap: priority bound")
	proto := flag.String("proto", "skeap", "heap protocol: skeap or seap")
	seed := flag.Uint64("seed", 1, "cluster seed (must match on every daemon)")
	tick := flag.Duration("tick", time.Millisecond, "activation period")
	walDir := flag.String("wal", "", "durability directory: WAL + snapshots of this daemon's pending set (empty: no durability)")
	leaseTTL := flag.Duration("lease-ttl", serve.DefaultLeaseTTL, "how long a delivered element stays leased before redelivery")
	maxInFlight := flag.Int("max-inflight", serve.DefaultMaxInFlight, "max accepted-but-incomplete heap ops before ErrOverloaded (negative: unlimited)")
	maxConnQueue := flag.Int("max-conn-queue", serve.DefaultMaxConnQueue, "max unwritten responses per connection before eviction (negative: unlimited)")
	snapshotEvery := flag.Duration("snapshot-every", 10*time.Second, "pending-set snapshot period with -wal (0: only at shutdown)")
	heartbeat := flag.Duration("heartbeat", 100*time.Millisecond, "peer heartbeat period in a multi-daemon cluster (0: no failure detection)")
	suspectAfter := flag.Duration("suspect-after", 0, "silence before a peer is suspect (0: 4×heartbeat)")
	downAfter := flag.Duration("down-after", 0, "silence before a peer is down (0: 10×heartbeat)")
	settleDelay := flag.Duration("reconcile-settle", 250*time.Millisecond, "quiescence window between a cluster reset and the reconciliation lease scan")
	relaxMode := flag.String("relax", "", "relaxed DeleteMin mode: samplek or batchlocal (empty: strict; replaces -proto, single-process only)")
	relaxK := flag.Int("relax-k", 0, "samplek: hosts sampled per DeleteMin (0: default)")
	relaxBatch := flag.Int("relax-batch", 0, "batchlocal: prefetch refill batch size (0: default)")
	of := obs.AddFlags()
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dpqd: "+format+"\n", args...)
		os.Exit(1)
	}
	addrs := strings.Split(*peers, ",")
	procs := len(addrs)
	if *peers == "" || *clientAddr == "" {
		fail("-peers and -client are required")
	}
	if *proc < 0 || *proc >= procs {
		fail("-proc %d out of range for %d peers", *proc, procs)
	}
	if *hosts < procs {
		fail("need at least one host per daemon (%d hosts, %d daemons)", *hosts, procs)
	}

	// Every daemon builds the identical full heap from the shared seed and
	// runs only its shard; the protocol state of remote nodes is never
	// touched because their handlers never run here.
	var heap serve.ProtocolHeap
	var skeapH *skeap.Heap
	switch *proto {
	case "skeap":
		skeapH = skeap.New(skeap.Config{N: *hosts, P: *prios, Seed: *seed})
		heap = serve.NewSkeapHeap(skeapH, *prios)
	case "seap":
		if procs > 1 {
			// Seap's per-cycle serialization finalize is anchored: the root
			// sorts the cycle's delete results by key to assign values
			// (Lemma 5.2), which needs every delete record of the cycle in
			// one place. Distributing that sort is future work; until then a
			// seap shard must be a single process.
			fail("-proto seap requires a single-process cluster (got %d peers)", procs)
		}
		heap = serve.NewSeapHeap(
			seap.New(seap.Config{N: *hosts, PrioBound: uint64(*prios), Seed: *seed, SeqConsistent: true}),
			uint64(*prios))
	default:
		fail("unknown -proto %q", *proto)
	}
	// -relax swaps the heap for the relaxation engine (internal/relax): the
	// same serving layer, but deletes are served coordination-free at a
	// measured rank error (reported as the "rankError" metrics extra at
	// shutdown). Single-process only: the engine has no reset protocol, so
	// partial-failure reconciliation cannot cover it.
	var relaxH *relax.Heap
	if *relaxMode != "" {
		if procs > 1 {
			fail("-relax requires a single-process cluster (got %d peers)", procs)
		}
		mode, err := relax.ParseMode(*relaxMode)
		if err != nil || mode == relax.Strict {
			fail("-relax %q: want samplek or batchlocal", *relaxMode)
		}
		relaxH = relax.New(relax.Config{
			N: *hosts, Seed: *seed, Mode: mode,
			K: *relaxK, Batch: *relaxBatch,
			PrioBound: uint64(*prios),
		})
		heap = serve.NewHeap(relaxH, uint64(*prios))
		skeapH = nil
		*proto = "relax-" + mode.String()
	} else {
		// The daemon reads only the trace's counts (Server.Quiesced, the
		// shutdown line) and its completion callback, so a strict heap's
		// trace forgets each op once issued instead of keeping every op
		// ever served. -relax keeps the full trace for rankError.
		heap.Trace().Forget()
	}

	// Contiguous host sharding: daemon p owns hosts [p·H/P, (p+1)·H/P).
	hostOwner := make([]int, *hosts)
	for p := 0; p < procs; p++ {
		for h := p * *hosts / procs; h < (p+1)**hosts/procs; h++ {
			hostOwner[h] = p
		}
	}
	var localHosts []int
	for h, p := range hostOwner {
		if p == *proc {
			localHosts = append(localHosts, h)
		}
	}

	sess, err := of.Start()
	if err != nil {
		fail("%v", err)
	}
	heap.SetObs(sess.Collector())

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dpqd[%d]: "+format+"\n", append([]any{*proc}, args...)...)
	}

	// In a multi-daemon cluster an element's WAL records live on the
	// daemon that accepted its insert, but the heap may deliver it to any
	// daemon's client. Acks therefore replicate to the owner (recovered
	// from the id's process bits) over the client protocol; without that,
	// a crash-restart cycle would resurrect already-consumed elements.
	// Built before the engine: the failure detector's callbacks park and
	// flush its per-owner queues.
	var fwd *serve.AckForwarder
	var clientAddrs []string
	var ownerOf func(prio.ElemID) int
	var peerAck func(int, prio.ElemID, func(error))
	if procs > 1 {
		if *clients == "" {
			if *walDir != "" {
				fail("-clients is required with -wal in a multi-daemon cluster (acks must replicate to the inserting daemon's log)")
			}
		} else {
			clientAddrs = strings.Split(*clients, ",")
			if len(clientAddrs) != procs {
				fail("-clients lists %d addresses for %d daemons", len(clientAddrs), procs)
			}
			fwd = serve.NewAckForwarder(clientAddrs)
			ownerOf = func(id prio.ElemID) int { return int(uint64(id)>>40) - 1 }
			peerAck = fwd.Forward
		}
	}

	groups, group := heap.Overlay().Group()
	nodeOwner := func(id sim.NodeID) int { return hostOwner[ldb.HostOf(id)] }
	anchorProc := nodeOwner(heap.Overlay().Anchor)
	if procs > 1 {
		// The anchor's daemon is the reset injector (a structural single
		// point of failure); operators and the partial-crash CI job pick
		// their victim from this line.
		logf("dpqd: anchor virtual node owned by proc %d", anchorProc)
	}

	// rec is assigned after the serving layer exists; the engine callbacks
	// below only fire once the engine starts, which is later still.
	var rec *serve.Reconciler
	hb := *heartbeat
	if procs == 1 {
		hb = 0
	}
	eng, err := netrun.New(netrun.Config{
		Proc:           *proc,
		Addrs:          addrs,
		Handlers:       heap.Handlers(),
		Owner:          nodeOwner,
		Seed:           *seed + 1,
		Groups:         groups,
		Group:          group,
		Tick:           *tick,
		Observer:       sess.Observer(),
		HeartbeatEvery: hb,
		SuspectAfter:   *suspectAfter,
		DownAfter:      *downAfter,
		OnPeerState: func(p int, state netrun.PeerState) {
			if rec == nil {
				return
			}
			switch state {
			case netrun.PeerDown:
				rec.PeerDown(p)
			case netrun.PeerUp:
				// Recovered without a restart (network blip, slow peer):
				// nothing was lost, just release any parked acks. A real
				// restart additionally fires OnPeerRejoin below.
				if fwd != nil {
					fwd.SetPeerDown(p, false)
				}
			}
		},
		OnPeerRejoin: func(p int) {
			// The peer session has already switched to the restarted
			// process's new stream; what is left is the protocol's business.
			if rec != nil {
				go rec.PeerRejoined(p)
			}
		},
		Logf: logf,
	})
	if err != nil {
		fail("%v", err)
	}

	// Element ids: (proc+1) in the high bits keeps ids unique per daemon.
	// The counter is seeded after serve.New below — with -wal a restarted
	// daemon must mint ids above everything the previous incarnation
	// logged, or a new insert would collide with a recovered element.
	var idMu sync.Mutex
	idCtr := uint64(0)
	nextID := func() prio.ElemID {
		idMu.Lock()
		defer idMu.Unlock()
		idCtr++
		return prio.ElemID(uint64(*proc+1)<<40 | idCtr)
	}

	// The serving layer recovers and re-injects this daemon's durable
	// pending set before the engine starts ticking, so recovery inserts
	// serialize before any client operation on the same host. In a
	// reconciling multi-daemon cluster recovery is deferred instead: the
	// survivors' cluster reset must land before re-injection, or the
	// recovered elements would race the abandoned positions.
	var degraded func() bool
	if procs > 1 && hb > 0 {
		degraded = eng.AnyPeerDown
	}
	deferRecovery := procs > 1 && *walDir != "" && fwd != nil
	srv, err := serve.New(serve.Config{
		Heap:          heap,
		Hosts:         localHosts,
		NextID:        nextID,
		WALDir:        *walDir,
		LeaseTTL:      *leaseTTL,
		MaxInFlight:   *maxInFlight,
		MaxConnQueue:  *maxConnQueue,
		SnapshotEvery: *snapshotEvery,
		Proc:          *proc,
		Owner:         ownerOf,
		PeerAck:       peerAck,
		Degraded:      degraded,
		DeferRecovery: deferRecovery,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dpqd[%d]: serve: "+format+"\n", append([]any{*proc}, args...)...)
		},
	})
	if err != nil {
		fail("%v", err)
	}
	// Partial-failure reconciliation needs the reset protocol (Skeap) and
	// the cross-daemon ack channel; with both present, peer crashes and
	// rejoins are handled instead of merely logged.
	if rh, ok := heap.(serve.ResettableHeap); ok && fwd != nil {
		rec = &serve.Reconciler{
			Server:      srv,
			Heap:        rh,
			Fwd:         fwd,
			AnchorLocal: anchorProc == *proc,
			Peers:       clientAddrs,
			Proc:        *proc,
			SettleDelay: *settleDelay,
			Logf:        logf,
		}
		fwd.OnParkFlush = func(owner int, id prio.ElemID, err error) { srv.SettleParked(id, err) }
	}
	// Seed the id counter past the recovered maximum before any client is
	// served (recovery re-injects elements under their old ids without
	// consuming new ones). Ids minted under a different process tag cannot
	// collide with ours and are ignored.
	if maxID := uint64(srv.MaxRecoveredID()); maxID>>40 == uint64(*proc+1) {
		idMu.Lock()
		idCtr = maxID & (1<<40 - 1)
		idMu.Unlock()
	}
	eng.Start()
	if deferRecovery && rec != nil {
		// Recovery re-injection of what the WAL recovered waits for the
		// survivors' cluster reset (or the cold-start timeout of a
		// full-cluster restart); a WAL that recovered nothing ends it at
		// once. It blocks on engine progress, so it must not run on this
		// goroutine.
		go rec.RecoverAsRestarter()
	}

	ln, err := net.Listen("tcp", *clientAddr)
	if err != nil {
		fail("client listen: %v", err)
	}
	fmt.Printf("dpqd[%d]: serving clients on %s, peers on %s, %d local hosts (%s)\n",
		*proc, ln.Addr(), eng.Addr(), len(localHosts), *proto)
	go srv.Serve(ln)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig

	// Graceful drain: no new clients or operations (late requests get
	// ErrShuttingDown), let in-flight operations complete, then snapshot,
	// flush the engine and the observability outputs. The verdict below
	// uses one atomic capture: Shutdown's returned stats plus a single
	// quiescence check after eng.Close, when no completion can still be
	// running — a verdict assembled from live counters could disagree with
	// itself.
	ln.Close()
	srv.Drain()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.Quiesced() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st, serr := srv.Shutdown()
	if fwd != nil {
		fwd.Close()
	}
	eng.Close()
	drained := srv.Quiesced() && st.InFlight == 0
	if serr != nil {
		fmt.Fprintf(os.Stderr, "dpqd[%d]: shutdown: %v\n", *proc, serr)
	}
	m := eng.Metrics()
	sess.SetExtra("serve", st)
	// The peer sessions' counters. frames is every message that left for
	// another daemon (0 in a one-daemon deployment); acks is the control
	// frames written for them, nearly all in front of a batch that was
	// being written anyway; replayed and skipped stay 0 unless a peer
	// connection was lost.
	lk := eng.Links()
	sess.SetExtra("link", lk)
	// What a routed operation (every Skeap/Seap operation ends in one DHT
	// Put or Get) cost in hops, over the routes delivered at this daemon.
	sess.SetExtra("routeHops", heap.Overlay().HopStats())
	if procs > 1 && hb > 0 {
		sess.SetExtra("peers", eng.Health())
	}
	if skeapH != nil && anchorProc == *proc {
		// The anchor's batch counts: in continuous mode each quiet epoch
		// begins with one empty batch, so empty ≪ started on a busy daemon
		// and an idle one adds neither.
		sess.SetExtra("batches", map[string]int{"started": skeapH.Iterations(), "empty": skeapH.EmptyIterations()})
	}
	if deferRecovery && rec != nil {
		sess.SetExtra("recovery", rec.Recovery())
	}
	if relaxH != nil {
		// The rank-error histogram of everything this daemon delivered:
		// the relaxed counterpart of the strict protocols' semantics
		// battery, quantifying how far each delivery was from the true
		// minimum at its serialization point.
		sess.SetExtra("rankError", obs.TraceRankError(relaxH.Trace()))
	}
	if err := sess.Close(&m); err != nil {
		fail("%v", err)
	}
	tr := heap.Trace()
	meanHops, maxHops := heap.Overlay().HopSummary()
	fmt.Printf("dpqd[%d]: served %d ops (%d rejected, %d leases, %d acked, %d redelivered), %d ops local, %d pending, ticks=%d msgs=%d link(frames=%d acks=%d replayed=%d skipped=%d retainedMax=%d) hops(mean=%.1f, max=%d) drained=%v\n",
		*proc, st.Served, st.Rejected, st.LeasesGranted, st.Acked, st.Redeliveries, tr.Len(), st.Pending, m.Rounds, m.Messages,
		lk.Frames, lk.Acks, lk.Replayed, lk.Skipped, lk.RetainedMax, meanHops, maxHops, drained)
	if !drained || serr != nil {
		os.Exit(1)
	}
}
