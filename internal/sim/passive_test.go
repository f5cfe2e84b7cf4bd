package sim

import (
	"reflect"
	"testing"
)

// countingNode appends its id to a shared log on every activation and the
// value of every message it handles to its own log.
type countingNode struct {
	passive bool
	acts    *[]NodeID
	got     []int
}

func (c *countingNode) HandleMessage(ctx *Context, from NodeID, m Message) {
	c.got = append(c.got, m.(*seqMsg).N)
}
func (c *countingNode) Activate(ctx *Context) { *c.acts = append(*c.acts, ctx.ID()) }
func (c *countingNode) Passive() bool         { return c.passive }

// TestPassiveHandlersSkipped checks the serial engine's activation set: a
// passive handler is never activated, the others once per round in id
// order; a passive node still handles all its mail in send order; a
// passive handler behind a ReliableTransport (which does not forward
// Passive) is activated; RefreshActive and AddHandler update the set.
func TestPassiveHandlersSkipped(t *testing.T) {
	var acts []NodeID
	nodes := make([]*countingNode, 6)
	hs := make([]Handler, len(nodes))
	for i := range nodes {
		nodes[i] = &countingNode{passive: i%2 == 1, acts: &acts}
		hs[i] = nodes[i]
	}
	hs[5] = WrapReliable(nodes[5], TransportConfig{})
	e := newSync(hs, 1, 0, nil)

	// round runs one round and returns the ids activated in it.
	round := func() []NodeID {
		acts = acts[:0]
		e.Step()
		return append([]NodeID(nil), acts...)
	}
	want := []int{}
	send := func(from NodeID, v int) {
		e.Context(from).Send(3, &seqMsg{N: v})
		want = append(want, v)
	}
	for v := 0; v < 10; v++ {
		send(NodeID(v%4), v)
	}
	for r := 0; r < 3; r++ {
		if got := round(); !reflect.DeepEqual(got, []NodeID{0, 2, 4, 5}) {
			t.Fatalf("round %d activated %v, want [0 2 4 5]", r, got)
		}
		send(NodeID(5-r), 10+r)
		send(NodeID(r), 20+r)
	}
	round()
	if !reflect.DeepEqual(nodes[3].got, want) {
		t.Fatalf("passive node 3 handled %v, want %v", nodes[3].got, want)
	}

	nodes[1].passive = false
	e.RefreshActive()
	if got := round(); !reflect.DeepEqual(got, []NodeID{0, 1, 2, 4, 5}) {
		t.Fatalf("after RefreshActive activated %v, want [0 1 2 4 5]", got)
	}
	e.AddHandler(&countingNode{passive: true, acts: &acts}, 1)
	e.AddHandler(&countingNode{acts: &acts}, 1)
	if got := round(); !reflect.DeepEqual(got, []NodeID{0, 1, 2, 4, 5, 7}) {
		t.Fatalf("after AddHandler activated %v, want [0 1 2 4 5 7]", got)
	}
}
