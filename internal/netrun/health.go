package netrun

// Failure detection. Each engine sends a control frame to every peer once
// per Config.HeartbeatEvery (only when the outbound buffer is otherwise
// idle — real frames count as liveness evidence too; the frame is the
// session's cumulative acknowledgement, see conn.go), and a
// monitor goroutine grades peers by how long ago the last inbound frame
// from them arrived: up → suspect after SuspectAfter → down after
// DownAfter. A crash-and-restart is detected separately, by incarnation:
// the handshake carries a per-engine-lifetime timestamp, so the first
// inbound connection from a restarted process fires OnPeerRejoin even if
// the outage was shorter than the suspicion window.
//
// State transitions and rejoin events are marshaled onto the engine's run
// goroutine (the one that executes handlers), so callbacks may touch
// handler state without extra locking — the same discipline sim engines
// give their handlers.

import (
	"sort"
	"time"
)

// PeerState grades one remote process's liveness.
type PeerState int

// Detector states: a peer is up until heartbeats go missing, suspect
// after SuspectAfter without evidence, down after DownAfter.
const (
	PeerUp PeerState = iota
	PeerSuspect
	PeerDown
)

// String names the state for logs and obs output.
func (s PeerState) String() string {
	switch s {
	case PeerUp:
		return "up"
	case PeerSuspect:
		return "suspect"
	case PeerDown:
		return "down"
	}
	return "invalid"
}

// PeerHealth is one peer's detector snapshot.
type PeerHealth struct {
	Proc        int
	State       PeerState
	LastAlive   time.Time
	Incarnation uint64 // last incarnation seen in a handshake (0 = never)
	Redials     int64  // failed outbound dial attempts
	Link        LinkStats
}

// healthRec is the mutable detector record for one peer (guarded by
// Engine.healthMu).
type healthRec struct {
	state       PeerState
	lastAlive   time.Time
	incarnation uint64
	redials     int64
}

// initHealth seeds every peer as up at engine construction time: a peer
// that never connects degrades through suspect to down on schedule.
func (e *Engine) initHealth() {
	now := time.Now()
	e.health = make(map[int]*healthRec, len(e.peers))
	for proc, p := range e.peers {
		if p != nil {
			e.health[proc] = &healthRec{state: PeerUp, lastAlive: now}
		}
	}
}

// setStateLocked moves rec to s (healthMu held), keeping the down count,
// and reports whether that was a transition.
func (e *Engine) setStateLocked(rec *healthRec, s PeerState) bool {
	if rec.state == s {
		return false
	}
	if rec.state == PeerDown {
		e.down.Add(-1)
	}
	if s == PeerDown {
		e.down.Add(1)
	}
	rec.state = s
	return true
}

// noteAlive records inbound-frame evidence from proc. A suspect or down
// peer recovers to up immediately.
func (e *Engine) noteAlive(proc int) {
	e.healthMu.Lock()
	rec := e.health[proc]
	if rec == nil {
		e.healthMu.Unlock()
		return
	}
	rec.lastAlive = time.Now()
	changed := e.setStateLocked(rec, PeerUp)
	e.healthMu.Unlock()
	if changed {
		e.emitPeerState(proc, PeerUp)
	}
}

// noteHandshake records an inbound connection's handshake. rejoined is the
// receive session's verdict that the incarnation differs from the stream it
// had — the peer process restarted in between. Survivors run restart
// reconciliation off this event, not off the down→up transition (a short
// crash can beat the suspicion window).
func (e *Engine) noteHandshake(proc int, incarnation uint64, rejoined bool) {
	e.healthMu.Lock()
	rec := e.health[proc]
	if rec == nil {
		e.healthMu.Unlock()
		return
	}
	rec.lastAlive = time.Now()
	recovered := e.setStateLocked(rec, PeerUp)
	rec.incarnation = incarnation
	e.healthMu.Unlock()
	if recovered {
		e.emitPeerState(proc, PeerUp)
	}
	if rejoined {
		e.cfg.Logf("netrun: proc %d rejoined with a new incarnation", proc)
		if cb := e.cfg.OnPeerRejoin; cb != nil {
			e.pushCtl(func() { cb(proc) })
		}
	}
}

// noteRedial counts one failed outbound dial attempt toward proc.
func (e *Engine) noteRedial(proc int) {
	e.healthMu.Lock()
	if rec := e.health[proc]; rec != nil {
		rec.redials++
	}
	e.healthMu.Unlock()
}

// emitPeerState marshals an OnPeerState callback onto the run goroutine.
func (e *Engine) emitPeerState(proc int, s PeerState) {
	e.cfg.Logf("netrun: proc %d is %s", proc, s)
	if cb := e.cfg.OnPeerState; cb != nil {
		e.pushCtl(func() { cb(proc, s) })
	}
}

// checkHealth degrades peers whose evidence went stale.
func (e *Engine) checkHealth(now time.Time) {
	type change struct {
		proc int
		s    PeerState
	}
	var changes []change
	e.healthMu.Lock()
	for proc, rec := range e.health {
		elapsed := now.Sub(rec.lastAlive)
		want := rec.state
		switch {
		case elapsed >= e.cfg.DownAfter:
			want = PeerDown
		case elapsed >= e.cfg.SuspectAfter:
			if rec.state == PeerUp {
				want = PeerSuspect
			}
		}
		if e.setStateLocked(rec, want) {
			changes = append(changes, change{proc, want})
		}
	}
	e.healthMu.Unlock()
	sort.Slice(changes, func(i, j int) bool { return changes[i].proc < changes[j].proc })
	for _, c := range changes {
		e.emitPeerState(c.proc, c.s)
	}
}

// monitor is the heartbeat/detector goroutine: every HeartbeatEvery it
// offers a control frame to each idle peer buffer and re-grades the
// evidence.
func (e *Engine) monitor() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			for _, p := range e.peers {
				if p != nil {
					p.offerCtl()
				}
			}
			e.checkHealth(time.Now())
		}
	}
}

// Health returns a snapshot of every peer's detector record and link
// counters, ordered by process id. Empty for a single-process engine; with
// the detector disabled every peer reads up.
func (e *Engine) Health() []PeerHealth {
	e.healthMu.Lock()
	out := make([]PeerHealth, 0, len(e.health))
	for proc, rec := range e.health {
		out = append(out, PeerHealth{
			Proc:        proc,
			State:       rec.state,
			LastAlive:   rec.lastAlive,
			Incarnation: rec.incarnation,
			Redials:     rec.redials,
		})
	}
	e.healthMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	for i := range out {
		out[i].Link = e.peers[out[i].Proc].stats()
	}
	return out
}

// PeerIsDown reports whether the detector currently grades proc as down.
func (e *Engine) PeerIsDown(proc int) bool {
	e.healthMu.Lock()
	defer e.healthMu.Unlock()
	rec := e.health[proc]
	return rec != nil && rec.state == PeerDown
}

// AnyPeerDown reports whether any peer is currently graded down. It is on
// every client request's path (serve.Config.Degraded): one atomic load.
func (e *Engine) AnyPeerDown() bool { return e.down.Load() > 0 }

// Incarnation returns this engine's own incarnation (what peers see in
// the handshake).
func (e *Engine) Incarnation() uint64 { return e.incarnation }
