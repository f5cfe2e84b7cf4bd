// Package sim is the message-passing substrate of the reproduction. It
// implements the paper's system model (§1.1) exactly:
//
//   - every node has a channel of incoming messages; messages are remote
//     action calls and are never lost or duplicated;
//   - the SyncEngine is the standard synchronous model used for the paper's
//     performance analysis: messages sent in round i are processed in round
//     i+1 and every node is activated once per round;
//   - the AsyncEngine delivers messages after arbitrary (seeded-random,
//     non-FIFO) delays with fair receipt, matching the asynchronous model
//     the paper's safety arguments assume.
//
// Both engines drive the same Handler implementations, so a protocol is
// written once and can be both measured (sync) and adversarially stressed
// (async). The engines account rounds, per-node congestion (max messages
// handled by one node in one round) and message sizes in bits — the three
// metrics of Theorems 3.2, 4.2 and 5.1.
package sim

import (
	"fmt"
	"testing"

	"dpq/internal/hashutil"
)

// NodeID identifies a simulated node. The overlay layers may map several
// simulated (virtual) nodes onto one real process; Metrics group congestion
// by the engine's Group function.
type NodeID int

// None is the invalid node id.
const None NodeID = -1

// Message is a remote action call. Bits reports the encoded size of the
// message in bits, the unit of Lemmas 3.8 and 5.5.
type Message interface {
	Bits() int
}

// KindOf classifies a message for instrumentation. Messages may expose a
// stable protocol-level name via a Kind() string method (e.g. "tree/up[1]",
// "route/put"); messages without one fall back to their Go type. Kind names
// are part of the trace schema: they must stay stable across runs of the
// same build for replay comparison.
func KindOf(msg Message) string {
	if k, ok := msg.(interface{ Kind() string }); ok {
		return k.Kind()
	}
	return fmt.Sprintf("%T", msg)
}

// Delivery describes one delivered message, as seen by an engine observer
// immediately after metric accounting and before the handler runs.
//
// Round is the synchronous round (SyncEngine) or the unit-sim-time window
// ⌊now⌋ (AsyncEngine). Time is the simulation time of the delivery (0 in
// the synchronous engine). Group is the congestion group (real process) of
// the receiver.
type Delivery struct {
	Round int
	Time  float64
	From  NodeID
	To    NodeID
	Group int
	Bits  int
	Msg   Message
}

// Handler is the behaviour of a node: HandleMessage consumes one message
// from the node's channel; Activate models the periodic activation of §1.1
// (once per round in the synchronous engine).
type Handler interface {
	HandleMessage(ctx *Context, from NodeID, msg Message)
	Activate(ctx *Context)
}

// PassiveHandler is an optional capability of a Handler: Passive reports
// that the node's Activate does nothing — sends nothing, changes no state —
// so the synchronous engine may skip it. In the §1.1 model a round of a
// node is a function of its state and the messages it received; an
// activation without effect cannot be observed, so skipping it changes no
// message, round or trace. Handlers without the method are activated every
// round, which makes wrappers (ReliableTransport) conservative by
// construction. The engine reads the answer when a handler joins; a driver
// that changes it later (an anchor hand-over) must call
// SyncEngine.RefreshActive. The synchronous engine and netrun consult it:
// the asynchronous engine's activations draw randomness and stay dense.
type PassiveHandler interface {
	Handler
	Passive() bool
}

// WakeableHandler is an optional capability of a PassiveHandler whose node
// sometimes needs an activation after all: a driver buffers an operation
// at a node that sits idle, or a node's state changes so that its next
// activation acts. An engine that skips passive nodes passes wake to
// every such handler when it joins, and wake(id) asks for one activation
// of node id. The synchronous engine gives it in the current round's
// activation phase when the wake is raised while the round's messages are
// delivered, otherwise in the next Step, in id order among the active
// nodes: exactly when an engine that activates every node would act, so
// waking changes no message, round or trace. Engines that activate every
// node every round never call SetWake.
type WakeableHandler interface {
	PassiveHandler
	SetWake(wake func(NodeID))
}

// isPassive reports whether h declares its Activate a no-op.
func isPassive(h Handler) bool {
	p, ok := h.(PassiveHandler)
	return ok && p.Passive()
}

// Context is passed to handlers and provides the node's identity, a
// deterministic per-node PRNG and the Send primitive.
type Context struct {
	id     NodeID
	rand   *hashutil.Rand
	engine engine
}

// ID returns the node executing the current action.
func (c *Context) ID() NodeID { return c.id }

// Rand returns the node's deterministic PRNG stream.
func (c *Context) Rand() *hashutil.Rand { return c.rand }

// Send puts msg into node to's channel. Sending to the node itself is
// allowed (a local action call) and is delivered like any other message.
// A message is immutable once sent: a sender may pass one value to several
// Sends (aggtree forwards the StartMsg it received to every child), and
// engines, observers and receivers only read it. The one exception is a
// message that only one node ever holds: ldb.Forward advances the hop
// count of the RouteMsg it passes on.
func (c *Context) Send(to NodeID, msg Message) {
	c.engine.send(c.id, to, msg)
}

type engine interface {
	send(from, to NodeID, msg Message)
}

// Sender delivers messages on behalf of an engine implemented outside this
// package (internal/netrun's TCP engine). It is the exported face of the
// internal engine interface.
type Sender interface {
	Send(from, to NodeID, msg Message)
}

// LosslessSender is an optional capability of a Sender: Lossless reports
// whether the link from→to can neither lose nor duplicate a message — an
// in-process queue, or a connection whose engine repairs resets itself
// (netrun's peer session), as opposed to a bare one that can lose or replay.
// The answer for a link must never change. ReliableTransport asks once per
// destination and sends bare over lossless links; a Sender without the
// method, like every engine of this package, is taken to be lossy
// throughout.
type LosslessSender interface {
	Sender
	Lossless(from, to NodeID) bool
}

// externalEngine adapts a Sender to the internal engine interface.
type externalEngine struct{ s Sender }

func (e externalEngine) send(from, to NodeID, msg Message) { e.s.Send(from, to, msg) }

// lossless reports whether the context's engine vouches for its link to
// node to (see LosslessSender).
func (c *Context) lossless(to NodeID) bool {
	if x, ok := c.engine.(externalEngine); ok {
		if l, ok := x.s.(LosslessSender); ok {
			return l.Lossless(c.id, to)
		}
	}
	return false
}

// NewExternalContext builds a node Context bound to an external engine: the
// context's Send primitive delegates to s. Handlers written against the
// simulators run unchanged on any engine that can construct their contexts
// this way.
func NewExternalContext(id NodeID, rnd *hashutil.Rand, s Sender) *Context {
	return &Context{id: id, rand: rnd, engine: externalEngine{s: s}}
}

type envelope struct {
	from NodeID
	to   NodeID
	msg  Message
}

// Metrics accumulates the cost measures of a run.
type Metrics struct {
	Rounds        int   // synchronous rounds executed
	Messages      int64 // total messages delivered
	TotalBits     int64 // sum of message sizes
	MaxMessageBit int   // largest single message, in bits
	// Congestion is the maximum number of messages handled by one group
	// (real node) in one round, over the whole run (§1.1 footnote 2).
	Congestion int
	// Deliveries[g] counts messages handled by group g over the run; used
	// by fairness and participation experiments.
	Deliveries []int64
	// Dropped counts deliveries whose group fell outside Deliveries — an
	// accounting bug (a group function not covered by AddHandler growth),
	// never a legitimate outcome. Engines panic instead when running under
	// `go test` (see SetStrictAccounting).
	Dropped int64
	// LostToCrash counts deliveries suppressed because the destination was
	// inside a crash window (AsyncEngine with a FaultPlan). These messages
	// were sent but never handled, so fault-soak assertions can tell "lost
	// at the receiver" from "never sent".
	LostToCrash int64
}

// strictDefault reports whether out-of-range congestion groups should panic
// rather than be counted into Dropped: loud in tests, counted in binaries.
func strictDefault() bool { return testing.Testing() }

func (m *Metrics) observe(group int, bits int, strict bool) {
	m.Messages++
	m.TotalBits += int64(bits)
	if bits > m.MaxMessageBit {
		m.MaxMessageBit = bits
	}
	switch {
	case group >= 0 && group < len(m.Deliveries):
		m.Deliveries[group]++
	case strict:
		panic(fmt.Sprintf("sim: delivery to out-of-range congestion group %d (have %d groups); AddHandler must grow Deliveries", group, len(m.Deliveries)))
	default:
		m.Dropped++
	}
}

// Observe accounts one delivered message: group is the receiver's
// congestion group and bits the message size. It is the exported face of
// the accounting the in-process engines do on every delivery, for engines
// implemented outside this package (internal/netrun).
func (m *Metrics) Observe(group, bits int, strict bool) { m.observe(group, bits, strict) }

// String summarizes the metrics.
func (m *Metrics) String() string {
	s := fmt.Sprintf("rounds=%d msgs=%d congestion=%d maxMsgBits=%d totalBits=%d",
		m.Rounds, m.Messages, m.Congestion, m.MaxMessageBit, m.TotalBits)
	if m.LostToCrash > 0 {
		s += fmt.Sprintf(" lostToCrash=%d", m.LostToCrash)
	}
	if m.Dropped > 0 {
		s += fmt.Sprintf(" dropped=%d", m.Dropped)
	}
	return s
}
