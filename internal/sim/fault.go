package sim

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"dpq/internal/hashutil"
)

// FaultProfile parameterizes a seeded FaultPlan. All rates are
// probabilities in [0,1]; the zero value is the lossless §1.1 model.
type FaultProfile struct {
	Seed uint64

	DropRate float64 // probability a sent message is lost in transit
	DupRate  float64 // probability a sent message is delivered twice

	// DelayRate is the probability a message suffers a delay spike: its
	// random delay is multiplied by DelayFactor (default 8), amplifying
	// reordering far beyond the engine's usual non-FIFO jitter.
	DelayRate   float64
	DelayFactor float64

	// CrashRate is the per-activation probability that a node crashes. A
	// crashed node neither executes activations nor receives messages for
	// CrashLength sim-time units (default 10), then restarts with its state
	// intact — the fail-recover model with stable storage.
	CrashRate   float64
	CrashLength float64
}

// Named fault profiles used by the soak matrix, dpqsim churn -faults and the
// experiments. "lossless" is the paper's model; "drop5" loses 5% of
// messages; "drop20dup" loses 20% and duplicates 10%, with delay spikes
// and node crashes on top.
var namedProfiles = map[string]FaultProfile{
	"lossless":  {},
	"drop5":     {DropRate: 0.05},
	"drop20dup": {DropRate: 0.20, DupRate: 0.10, DelayRate: 0.05, CrashRate: 0.002},
}

// ParseFaultProfile resolves spec into a profile: either a named profile
// ("lossless", "drop5", "drop20dup") or a comma-separated key=value list
// over drop, dup, delay, delayfactor, crash, crashlen — e.g.
// "drop=0.2,dup=0.1,crash=0.01". seed seeds the plan's decisions.
func ParseFaultProfile(spec string, seed uint64) (FaultProfile, error) {
	if p, ok := namedProfiles[spec]; ok {
		p.Seed = seed
		return p, nil
	}
	p := FaultProfile{Seed: seed}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("sim: fault spec %q: want name or key=value list", spec)
		}
		var f float64
		if _, err := fmt.Sscanf(v, "%g", &f); err != nil {
			return p, fmt.Errorf("sim: fault spec %q: bad value %q", spec, v)
		}
		switch k {
		case "drop":
			p.DropRate = f
		case "dup":
			p.DupRate = f
		case "delay":
			p.DelayRate = f
		case "delayfactor":
			p.DelayFactor = f
		case "crash":
			p.CrashRate = f
		case "crashlen":
			p.CrashLength = f
		default:
			return p, fmt.Errorf("sim: fault spec %q: unknown key %q", spec, k)
		}
	}
	return p, nil
}

// FaultKind labels one injected fault in a trace.
type FaultKind uint8

// Fault kinds.
const (
	FaultDrop FaultKind = iota
	FaultDup
	FaultDelay
	FaultCrash
	numFaultKinds
)

var faultKindNames = [numFaultKinds]string{"drop", "dup", "delay", "crash"}

func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultEvent is one recorded fault decision, keyed by the engine sequence
// number of the send (drop/dup/delay) or activation (crash) it hit.
type FaultEvent struct {
	Seq    int64
	Kind   FaultKind
	Node   NodeID  // destination of the faulted message, or the crashed node
	Amount float64 // delay factor (FaultDelay) or crash length (FaultCrash)
}

// FaultTrace is the replayable record of every fault a plan injected.
// Replaying it against the same workload and engine seed reproduces the
// faulty execution exactly (see ReplayFaultPlan).
type FaultTrace struct {
	Events []FaultEvent
}

// Encode writes the trace in its line format: "seq kind node amount".
func (t *FaultTrace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range t.Events {
		if _, err := fmt.Fprintf(bw, "%d %s %d %g\n", ev.Seq, ev.Kind, ev.Node, ev.Amount); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeFaultTrace parses the format written by Encode.
func DecodeFaultTrace(r io.Reader) (*FaultTrace, error) {
	t := &FaultTrace{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var (
			ev   FaultEvent
			kind string
		)
		if _, err := fmt.Sscanf(line, "%d %s %d %g", &ev.Seq, &kind, &ev.Node, &ev.Amount); err != nil {
			return nil, fmt.Errorf("sim: bad fault trace line %q: %v", line, err)
		}
		found := false
		for k, name := range faultKindNames {
			if name == kind {
				ev.Kind = FaultKind(k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("sim: bad fault kind %q", kind)
		}
		t.Events = append(t.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// FaultPlan decides, deterministically, which messages the AsyncEngine
// loses, duplicates or delay-spikes and when nodes crash and restart. A
// plan is either seeded (NewFaultPlan — decisions drawn from its own PRNG
// and recorded) or a replay (ReplayFaultPlan — decisions looked up from a
// recorded trace). Either way the same workload yields the same faulty
// execution, so any failing run reproduces from its seed or its trace.
//
// A plan holds run state (crash windows, recorded trace) and must not be
// shared between engines.
type FaultPlan struct {
	profile FaultProfile
	rand    *hashutil.Rand       // decision stream; nil in replay mode
	replay  map[int64]FaultEvent // recorded decisions by seq; nil when seeded
	trace   FaultTrace
	counts  [numFaultKinds]int64

	downUntil map[NodeID]float64
	restarts  minHeap[restart] // pending crash recoveries, soonest first
}

// restart schedules the end of a node's crash window.
type restart struct {
	at   float64
	seq  int64 // tiebreak: the crash decision's engine seq
	node NodeID
}

func restartLess(a, b restart) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// NewFaultPlan returns a seeded plan for the profile. Defaults: DelayFactor
// 8, CrashLength 10 (sim-time units).
func NewFaultPlan(p FaultProfile) *FaultPlan {
	if p.DelayFactor == 0 {
		p.DelayFactor = 8
	}
	if p.CrashLength == 0 {
		p.CrashLength = 10
	}
	return &FaultPlan{
		profile:   p,
		rand:      hashutil.NewRand(p.Seed ^ 0xfa117a1e),
		downUntil: make(map[NodeID]float64),
		restarts:  newMinHeap(restartLess),
	}
}

// ReplayFaultPlan returns a plan that re-injects exactly the faults of a
// recorded trace instead of drawing random decisions.
func ReplayFaultPlan(t *FaultTrace) *FaultPlan {
	bys := make(map[int64]FaultEvent, len(t.Events))
	for _, ev := range t.Events {
		bys[ev.Seq] = ev
	}
	return &FaultPlan{
		replay:    bys,
		downUntil: make(map[NodeID]float64),
		restarts:  newMinHeap(restartLess),
	}
}

// Trace returns the faults injected so far, in injection order.
func (p *FaultPlan) Trace() *FaultTrace { return &p.trace }

// Counts returns how many faults of each kind were injected so far.
func (p *FaultPlan) Counts() (drops, dups, delays, crashes int64) {
	return p.counts[FaultDrop], p.counts[FaultDup], p.counts[FaultDelay], p.counts[FaultCrash]
}

// String summarizes the injected faults.
func (p *FaultPlan) String() string {
	d, u, l, c := p.Counts()
	return fmt.Sprintf("drops=%d dups=%d delays=%d crashes=%d", d, u, l, c)
}

func (p *FaultPlan) record(ev FaultEvent) {
	p.trace.Events = append(p.trace.Events, ev)
	p.counts[ev.Kind]++
}

// sendDecision is the fate of one sent message.
type sendDecision struct {
	drop        bool
	dup         bool
	delayFactor float64
}

// decideSend is consulted by the engine for the message with engine
// sequence number seq addressed to node to.
func (p *FaultPlan) decideSend(seq int64, to NodeID) sendDecision {
	var d sendDecision
	if p.replay != nil {
		ev, ok := p.replay[seq]
		if !ok {
			return d
		}
		switch ev.Kind {
		case FaultDrop:
			d.drop = true
		case FaultDup:
			d.dup = true
		case FaultDelay:
			d.delayFactor = ev.Amount
		}
		p.record(ev)
		return d
	}
	switch {
	case p.rand.Bool(p.profile.DropRate):
		d.drop = true
		p.record(FaultEvent{Seq: seq, Kind: FaultDrop, Node: to})
	case p.rand.Bool(p.profile.DupRate):
		d.dup = true
		p.record(FaultEvent{Seq: seq, Kind: FaultDup, Node: to})
	case p.rand.Bool(p.profile.DelayRate):
		d.delayFactor = p.profile.DelayFactor
		p.record(FaultEvent{Seq: seq, Kind: FaultDelay, Node: to, Amount: d.delayFactor})
	}
	return d
}

// decideActivation is consulted when node's activation event (sequence
// number seq) fires at time now; it may start a crash window.
func (p *FaultPlan) decideActivation(seq int64, node NodeID, now float64) {
	if p.down(node, now) {
		return // already crashed; one window at a time
	}
	if p.replay != nil {
		if ev, ok := p.replay[seq]; ok && ev.Kind == FaultCrash {
			p.crash(seq, node, now, ev.Amount)
		}
		return
	}
	if p.rand.Bool(p.profile.CrashRate) {
		p.crash(seq, node, now, p.profile.CrashLength)
	}
}

func (p *FaultPlan) crash(seq int64, node NodeID, now, length float64) {
	p.downUntil[node] = now + length
	p.restarts.Push(restart{at: now + length, seq: seq, node: node})
	p.record(FaultEvent{Seq: seq, Kind: FaultCrash, Node: node, Amount: length})
}

// down reports whether node is inside a crash window at time now, retiring
// elapsed restarts from the schedule first.
func (p *FaultPlan) down(node NodeID, now float64) bool {
	for p.restarts.Len() > 0 && p.restarts.Peek().at <= now {
		r := p.restarts.Pop()
		if p.downUntil[r.node] <= now {
			delete(p.downUntil, r.node)
		}
	}
	until, ok := p.downUntil[node]
	return ok && now < until
}
