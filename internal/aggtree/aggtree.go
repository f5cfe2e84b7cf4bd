// Package aggtree implements the aggregation phases of §2.2 on the tree
// embedded in the LDB (Lemma 2.2): values flow from the leaves to the
// anchor, being combined at every inner node, and results flow back down,
// being decomposed at every inner node. One gather–scatter exchange costs
// O(height) = O(log n) rounds w.h.p.
//
// The package provides a single reusable primitive, the Proto/Table/Runner
// trio: a Proto describes one aggregation protocol (how a node contributes,
// how contributions combine, what the anchor computes, and how the result
// is split among children); a Table binds tags to the Protos of one
// protocol instance, once for all of its nodes; a Runner multiplexes the
// Table's Protos and sequential instances (Seq) of each over one node's
// tree links. All of Skeap's phases 1–3, Seap's phases and KSelect's
// aggregation steps are instances of this primitive, exactly as the paper
// describes them.
package aggtree

import (
	"fmt"
	"slices"

	"dpq/internal/ldb"
	"dpq/internal/sim"
)

// Value is a protocol-defined aggregate carried in tree messages. Its Bits
// method feeds the engines' message-size accounting.
type Value = sim.Message

// KidValue is a child's contribution, remembered by inner nodes between
// the gather and the scatter (Skeap Phase 1 "memorizes the sub-batches…
// as it needs them to perform the correct interval decomposition"). The
// kids of an instance are in the order of the node's Children.
type KidValue struct {
	From sim.NodeID
	V    Value
}

// Proto describes one gather–scatter protocol. Combine, AtRoot and Split
// are pure with respect to the tree; all protocol state lives in the
// closures' owner. One Proto serves every node of a protocol instance (see
// Table): its closures capture the protocol driver and reach the executing
// node's state through self.ID. A closure touches only self's state, and
// the anchor's only in AtRoot.
//
// Combine and Split must not retain kids: the slice lives in the
// instance's state, whose storage the Runner owns.
type Proto struct {
	// Name is used in diagnostics.
	Name string
	// Own returns the node's contribution when the instance starts at
	// that node (params are the anchor's start parameters).
	Own func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value) Value
	// Combine merges the node's own contribution with its children's.
	Combine func(self *ldb.VInfo, seq uint64, params Value, own Value, kids []KidValue) Value
	// AtRoot consumes the fully combined value at the anchor and returns
	// the value to scatter down. A scattering Proto must always scatter: a
	// nil return would leave every other node holding the instance's
	// gather state. A gather-only Proto's AtRoot returns nil.
	AtRoot func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, combined Value) Value
	// Split decomposes a down value into the node's own part and one part
	// per remembered child (same order as kids). Nil parts are not sent.
	// A Proto without Split is gather-only: it never scatters, and every
	// node drops the instance once its up is sent.
	Split func(self *ldb.VInfo, seq uint64, params Value, down Value, own Value, kids []KidValue) (ownPart Value, kidParts []Value)
	// OnOwn consumes the node's own part of the scatter.
	OnOwn func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, ownPart Value)
	// Kids, when set, names the children whose subtrees the instance runs
	// on at self; the others are skipped: they get no start, and self
	// awaits no up from them, for started and contributed instances alike
	// (params is nil for a contributed one). A skipped subtree must have
	// nothing to contribute but the identity, and nothing to receive from
	// the scatter. Nil runs the instance on every child.
	Kids func(self *ldb.VInfo, seq uint64, params Value) Mask
	// NoShare, when set, reports that the subtree whose combined value is
	// up gets no share of the scatter: its root drops the instance state
	// once the up is sent, and its parent sends it no down message, whatever
	// part Split computed for it.
	NoShare func(up Value) bool
}

// Mask names a subset of a node's tree children: bit i stands for
// self.Children[i]. An LDB tree node has at most two children (Lemma
// 2.2(i)); a Kids rule may name up to eight.
type Mask uint8

// AllKids is the mask of every child.
const AllKids Mask = 0xFF

// kid returns the mask naming child i alone; none for an index outside
// the mask.
func kid(i int) Mask {
	if i < 0 || i >= 8 {
		return 0
	}
	return 1 << i
}

// KidsWhere returns the mask of the children among kids whose values
// satisfy keep. Protocols record it in a gather to narrow later instances
// to the subtrees that still hold their work.
func KidsWhere(self *ldb.VInfo, kids []KidValue, keep func(Value) bool) Mask {
	var m Mask
	for _, kv := range kids {
		if keep(kv.V) {
			m |= kid(slices.Index(self.Children, kv.From))
		}
	}
	return m
}

// SkipRightLeaves is a Kids rule for instances whose work never sits at a
// right node. A host's right node is always a leaf of the tree: its label
// (x+1)/2 is ≥ ½, so it is no left node's pred, and its parent is its
// host's middle node. The rule reads the current children, so joins and
// leaves need nothing.
func SkipRightLeaves(self *ldb.VInfo, _ uint64, _ Value) Mask {
	var m Mask
	for i, c := range self.Children {
		if ldb.KindOf(c) != ldb.Right {
			m |= kid(i)
		}
	}
	return m
}

// Dense, when set, runs every instance on every child and sends every
// child its share, ignoring Kids and NoShare: the reference that skipping
// subtrees is tested against. Only tests set it, before any Runner handles
// a message and never while one runs.
var Dense bool

// Tag identifies a registered Proto within a Runner.
type Tag uint8

// instance key: one protocol may run sequential instances (per iteration).
type key struct {
	tag Tag
	seq uint64
}

type state struct {
	start  *StartMsg // the instance's start, forwarded to the children; nil for a contributed instance
	begun  bool
	own    Value
	kids   []KidValue
	sentUp bool
	runs   Mask // the children the instance runs on, fixed at begin time
	want   int  // how many of them
	// kidBuf backs kids for the ≤ 2 children an LDB tree node has
	// (Lemma 2.2(i), Cor. A.4); append moves past it only for wider trees.
	kidBuf [2]KidValue
}

// StartMsg begins instance (Tag, Seq) at the receiving subtree: the node
// contributes Own, forwards the start to its children and awaits their
// UpMsgs. A node forwards the StartMsg it received, so one value reaches
// every node of the tree (messages are immutable once sent, see
// sim.Context.Send).
type StartMsg struct {
	Tag    Tag
	Seq    uint64
	Params Value
}

// kindNames holds the instrumentation names of the tree messages per tag,
// built once: Kind runs on every observed delivery. The names are part of
// the trace schema.
var kindNames [3][256]string

func init() {
	for i, prefix := range []string{"tree/start", "tree/up", "tree/down"} {
		for tag := range kindNames[i] {
			kindNames[i][tag] = fmt.Sprintf("%s[%d]", prefix, tag)
		}
	}
}

// Kind names the message for instrumentation, per instance tag.
func (m *StartMsg) Kind() string { return kindNames[0][m.Tag] }

// Bits accounts a small header plus the parameters.
func (m *StartMsg) Bits() int {
	b := 16 + 64
	if m.Params != nil {
		b += m.Params.Bits()
	}
	return b
}

// UpMsg carries a combined contribution from a child to its parent.
type UpMsg struct {
	Tag Tag
	Seq uint64
	V   Value
}

// Kind names the message for instrumentation, per instance tag.
func (m *UpMsg) Kind() string { return kindNames[1][m.Tag] }

// Bits accounts a small header plus the value.
func (m *UpMsg) Bits() int { return 16 + 64 + m.V.Bits() }

// DownMsg carries a child's share of the scattered result.
type DownMsg struct {
	Tag Tag
	Seq uint64
	V   Value
}

// Kind names the message for instrumentation, per instance tag.
func (m *DownMsg) Kind() string { return kindNames[2][m.Tag] }

// Bits accounts a small header plus the value.
func (m *DownMsg) Bits() int { return 16 + 64 + m.V.Bits() }

// Table binds tags to the Protos of one protocol instance. The protocol
// description is public and identical at every node, so it is registered
// once and shared by all of the instance's Runners. Register every tag
// before the first message is handled; the Table is read-only afterwards,
// so Runners on concurrent goroutines share it safely. The zero value is
// an empty Table.
type Table struct {
	protos []*Proto // indexed by tag; nil where unregistered
}

// Register binds tag to p.
func (t *Table) Register(tag Tag, p *Proto) {
	if t.lookup(tag) != nil {
		panic(fmt.Sprintf("aggtree: duplicate tag %d", tag))
	}
	if int(tag) >= len(t.protos) {
		t.protos = append(t.protos, make([]*Proto, int(tag)+1-len(t.protos))...)
	}
	t.protos[tag] = p
}

// lookup returns the proto registered for tag, or nil.
func (t *Table) lookup(tag Tag) *Proto {
	if int(tag) < len(t.protos) {
		return t.protos[tag]
	}
	return nil
}

// Runner returns a Runner for one virtual node, executing t's Protos. A
// Runner is a plain value meant to be embedded in the node's state; its
// instance and floor tables are allocated lazily on first write, since
// most nodes of a large simulation never anchor an instance or see a
// reset.
func (t *Table) Runner() Runner { return Runner{tab: t} }

// Runner executes a Table's Protos at one virtual node. Protocol handlers
// delegate StartMsg/UpMsg/DownMsg to it.
type Runner struct {
	tab *Table
	// states is a linear-scan table: a node has at most a couple of live
	// instances, and unlike a map the slice's footprint shrinks back to a
	// header once instances complete — at million-node scale a per-node
	// map that has ever been touched would dominate steady-state memory.
	states []instState
	// floors suppress instances below a per-tag sequence floor: after a
	// partial-failure reset every message of an aborted instance — late
	// starts queued at a crashed peer, stale ups, stale downs — must be
	// dropped, or it would resurrect state for an iteration whose
	// operations have already been re-buffered elsewhere.
	floors  map[Tag]uint64
	dropped int64
}

type instState struct {
	k  key
	st *state
}

// AbortBelow abandons every instance of tag with seq < floor and suppresses
// their future messages: states are deleted and later Start/Up/Down frames
// for those instances are consumed silently. Callers must re-buffer any
// operations the aborted instances carried — the Runner only forgets.
// Floors are monotone; a lower floor than the current one is a no-op.
func (r *Runner) AbortBelow(tag Tag, floor uint64) {
	if floor <= r.floors[tag] {
		return
	}
	if r.floors == nil {
		r.floors = make(map[Tag]uint64)
	}
	r.floors[tag] = floor
	kept := r.states[:0]
	for _, is := range r.states {
		if !(is.k.tag == tag && is.k.seq < floor) {
			kept = append(kept, is)
		}
	}
	clear(r.states[len(kept):])
	r.states = kept
}

// Floor returns the current suppression floor for tag (0 = none).
func (r *Runner) Floor(tag Tag) uint64 { return r.floors[tag] }

// Dropped returns how many messages the floors have suppressed.
func (r *Runner) Dropped() int64 { return r.dropped }

// below reports (and counts) whether an instance seq is floored for tag.
func (r *Runner) below(tag Tag, seq uint64) bool {
	if r.floors != nil && seq < r.floors[tag] {
		r.dropped++
		return true
	}
	return false
}

// Start initiates instance (tag, seq) from the anchor. It must be called
// in the anchor's context.
func (r *Runner) Start(ctx *sim.Context, self *ldb.VInfo, tag Tag, seq uint64, params Value) {
	if self.Parent != sim.None {
		panic("aggtree: Start called at a non-anchor node")
	}
	r.begin(ctx, self, &StartMsg{Tag: tag, Seq: seq, Params: params})
}

// Contribute begins gather instance (tag, seq) at this node with the
// contribution own, without a start wave: every node the instance runs on
// contributes on its own once its part of the work is finished, and its
// combined value goes up as soon as its children's have arrived. It is a
// convergecast, counted like the up wave of a started instance, and the
// anchor's AtRoot runs when the last subtree has reported. The Proto must
// be gather-only (no Split); its params are nil and its Own is not
// called. Every node the instance runs on (the anchor and, below each of
// them, the children its Kids rule names) must contribute exactly once
// per seq.
func (r *Runner) Contribute(ctx *sim.Context, self *ldb.VInfo, tag Tag, seq uint64, own Value) {
	p := r.proto(tag)
	if !p.gatherOnly() {
		panic(fmt.Sprintf("aggtree: %s contributed to but scatters", p.Name))
	}
	st := r.state(tag, seq)
	if st.begun {
		panic(fmt.Sprintf("aggtree: %s instance %d started twice", p.Name, seq))
	}
	st.begun = true
	st.runs = p.runsOn(self, seq, nil)
	st.want = kidCount(self, st.runs)
	st.own = own
	r.maybeCombine(ctx, self, tag, seq, st)
}

// Handle processes one tree message; it reports whether the message was an
// aggtree message with a tag registered in this Runner's Table (false lets
// the caller dispatch other message types or other Runners).
func (r *Runner) Handle(ctx *sim.Context, self *ldb.VInfo, from sim.NodeID, msg sim.Message) bool {
	switch m := msg.(type) {
	case *StartMsg:
		if r.tab.lookup(m.Tag) == nil {
			return false
		}
		if r.below(m.Tag, m.Seq) {
			return true
		}
		r.begin(ctx, self, m)
	case *UpMsg:
		if r.tab.lookup(m.Tag) == nil {
			return false
		}
		if r.below(m.Tag, m.Seq) {
			return true
		}
		st := r.state(m.Tag, m.Seq)
		st.addKid(self, KidValue{From: from, V: m.V})
		r.maybeCombine(ctx, self, m.Tag, m.Seq, st)
	case *DownMsg:
		if r.tab.lookup(m.Tag) == nil {
			return false
		}
		if r.below(m.Tag, m.Seq) {
			return true
		}
		if st := r.findState(key{m.Tag, m.Seq}); st == nil || !st.begun {
			// An assignment for an instance this node never began: a peer's
			// reliable transport retransmitted a pre-crash frame into a
			// restarted process. Without gather state it cannot be split,
			// and the instance is below the reset floor about to land — drop
			// it (and any stale kid-value stub) rather than corrupt state.
			// In one incarnation this cannot happen: the parent's StartMsg
			// precedes its DownMsg on the same FIFO channel.
			r.dropState(key{m.Tag, m.Seq})
			r.dropped++
			return true
		}
		r.scatter(ctx, self, m.Tag, m.Seq, m.V)
	default:
		return false
	}
	return true
}

// runsOn returns the children the instance runs on at self.
func (p *Proto) runsOn(self *ldb.VInfo, seq uint64, params Value) Mask {
	if p.Kids == nil || Dense {
		return AllKids
	}
	return p.Kids(self, seq, params)
}

// gatherOnly reports whether the instance never scatters, so that every
// node drops it once its up is sent. Dense does not apply: a gather-only
// instance has no scatter to send to anyone.
func (p *Proto) gatherOnly() bool { return p.Split == nil }

// unshared reports whether a subtree that sent up gets no share of the
// scatter.
func (p *Proto) unshared(up Value) bool {
	return p.NoShare != nil && !Dense && p.NoShare(up)
}

// names reports whether m names self's child c.
func (m Mask) names(self *ldb.VInfo, c sim.NodeID) bool {
	i := slices.Index(self.Children, c)
	return i >= 0 && (m == AllKids || m&kid(i) != 0)
}

// kidCount returns how many of self's children m names.
func kidCount(self *ldb.VInfo, m Mask) int {
	if m == AllKids {
		return len(self.Children)
	}
	if len(self.Children) > 8 {
		panic("aggtree: a Kids rule at a node with more than eight children")
	}
	c := 0
	for i := range self.Children {
		if m&kid(i) != 0 {
			c++
		}
	}
	return c
}

// addKid records a child's up value. The kids stay in the order of
// self.Children, not of arrival, so a Split's decomposition depends on the
// tree alone: whether an instance skips a subtree, or how an engine delays
// the ups, the shares handed out are the same.
func (st *state) addKid(self *ldb.VInfo, kv KidValue) {
	st.kids = append(st.kids, kv)
	at := slices.Index(self.Children, kv.From)
	for i := len(st.kids) - 1; i > 0 && slices.Index(self.Children, st.kids[i-1].From) > at; i-- {
		st.kids[i-1], st.kids[i] = st.kids[i], st.kids[i-1]
	}
}

func (r *Runner) proto(tag Tag) *Proto {
	p := r.tab.lookup(tag)
	if p == nil {
		panic(fmt.Sprintf("aggtree: unknown tag %d", tag))
	}
	return p
}

func (r *Runner) state(tag Tag, seq uint64) *state {
	k := key{tag, seq}
	if st := r.findState(k); st != nil {
		return st
	}
	st := &state{}
	st.kids = st.kidBuf[:0]
	r.states = append(r.states, instState{k: k, st: st})
	return st
}

// findState returns the live state for k, or nil.
func (r *Runner) findState(k key) *state {
	for i := range r.states {
		if r.states[i].k == k {
			return r.states[i].st
		}
	}
	return nil
}

// dropState removes the state for k, preserving the order of the rest.
func (r *Runner) dropState(k key) {
	for i := range r.states {
		if r.states[i].k == k {
			r.states = append(r.states[:i], r.states[i+1:]...)
			clear(r.states[len(r.states):cap(r.states)])
			return
		}
	}
}

func (r *Runner) begin(ctx *sim.Context, self *ldb.VInfo, m *StartMsg) {
	tag, seq := m.Tag, m.Seq
	p := r.proto(tag)
	st := r.state(tag, seq)
	if st.begun {
		panic(fmt.Sprintf("aggtree: %s instance %d started twice", p.Name, seq))
	}
	st.begun = true
	st.start = m
	st.own = p.Own(ctx, self, seq, m.Params)
	st.runs = p.runsOn(self, seq, m.Params)
	st.want = kidCount(self, st.runs)
	for _, c := range self.Children {
		if st.runs.names(self, c) {
			ctx.Send(c, m)
		}
	}
	r.maybeCombine(ctx, self, tag, seq, st)
}

func (r *Runner) maybeCombine(ctx *sim.Context, self *ldb.VInfo, tag Tag, seq uint64, st *state) {
	if !st.begun || st.sentUp || len(st.kids) < st.want {
		return
	}
	p := r.proto(tag)
	for _, kv := range st.kids {
		if !st.runs.names(self, kv.From) {
			panic(fmt.Sprintf("aggtree: %s instance %d at node %d: an up from child %d, which it skips", p.Name, seq, self.ID, kv.From))
		}
	}
	var params Value
	if st.start != nil {
		params = st.start.Params
	}
	combined := p.Combine(self, seq, params, st.own, st.kids)
	st.sentUp = true
	if self.Parent == sim.None {
		down := p.AtRoot(ctx, self, seq, params, combined)
		switch {
		case p.gatherOnly() && down != nil:
			panic(fmt.Sprintf("aggtree: %s instance %d: a gather-only AtRoot returned a value to scatter", p.Name, seq))
		case p.gatherOnly():
			r.dropState(key{tag, seq})
		case down == nil:
			panic(fmt.Sprintf("aggtree: %s instance %d ended without a scatter", p.Name, seq))
		default:
			r.scatter(ctx, self, tag, seq, down)
		}
		return
	}
	ctx.Send(self.Parent, &UpMsg{Tag: tag, Seq: seq, V: combined})
	if p.gatherOnly() || p.unshared(combined) {
		r.dropState(key{tag, seq})
	}
}

func (r *Runner) scatter(ctx *sim.Context, self *ldb.VInfo, tag Tag, seq uint64, down Value) {
	p := r.proto(tag)
	st := r.state(tag, seq)
	if !st.begun {
		panic(fmt.Sprintf("aggtree: %s scatter at node %d for un-begun instance seq %d (floor %d, kids %d)", p.Name, self.ID, seq, r.floors[tag], len(st.kids)))
	}
	params := st.start.Params
	ownPart, kidParts := p.Split(self, seq, params, down, st.own, st.kids)
	if len(kidParts) != len(st.kids) {
		panic(fmt.Sprintf("aggtree: %s Split returned %d parts for %d children", p.Name, len(kidParts), len(st.kids)))
	}
	for i, kv := range st.kids {
		if kidParts[i] != nil && !p.unshared(kv.V) {
			ctx.Send(kv.From, &DownMsg{Tag: tag, Seq: seq, V: kidParts[i]})
		}
	}
	if p.OnOwn != nil {
		p.OnOwn(ctx, self, seq, params, ownPart)
	}
	r.dropState(key{tag, seq})
}
