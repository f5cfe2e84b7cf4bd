package aggtree

import (
	"fmt"
	"strings"
	"testing"

	"dpq/internal/ldb"
	"dpq/internal/sim"
)

// skipTree is 0 → {1, 2}, 1 → {3, 5}, 2 → {4}. Node 0's Kids rule skips
// child 2 (and so node 4); node 5's subtree contributes 0 and gets no
// share of the scatter.
func skipTree() []*ldb.VInfo {
	return []*ldb.VInfo{
		{ID: 0, Parent: sim.None, Children: []sim.NodeID{1, 2}},
		{ID: 1, Parent: 0, Children: []sim.NodeID{3, 5}},
		{ID: 2, Parent: 0, Children: []sim.NodeID{4}},
		{ID: 3, Parent: 1},
		{ID: 4, Parent: 2},
		{ID: 5, Parent: 1},
	}
}

// skipProto counts the nodes with ID 3 (one each) and scatters each
// subtree its count, recording which nodes get their own part.
func skipProto(got map[sim.NodeID]bool) *Proto {
	return &Proto{
		Name: "skip",
		Kids: func(self *ldb.VInfo, seq uint64, params Value) Mask {
			if self.ID == 0 {
				return 1 // Children[0] only
			}
			return AllKids
		},
		NoShare: func(up Value) bool { return up.(IntVal) == 0 },
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value) Value {
			if self.ID == 3 {
				return IntVal(1)
			}
			return IntVal(0)
		},
		Combine: func(self *ldb.VInfo, seq uint64, params Value, own Value, kids []KidValue) Value {
			t := own.(IntVal)
			for _, kv := range kids {
				t += kv.V.(IntVal)
			}
			return t
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, combined Value) Value {
			return combined
		},
		Split: func(self *ldb.VInfo, seq uint64, params Value, down Value, own Value, kids []KidValue) (Value, []Value) {
			parts := make([]Value, len(kids))
			for i, kv := range kids {
				parts[i] = kv.V
			}
			return own, parts
		},
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, ownPart Value) {
			got[self.ID] = true
		},
	}
}

// TestKidsAndNoShare: a start reaches only the children a Kids rule names
// and an up is awaited only from them; a subtree marked NoShare gets no
// down message and keeps no state; Dense restores the full tree; an up
// from a skipped child panics.
func TestKidsAndNoShare(t *testing.T) {
	for _, dense := range []bool{false, true} {
		Dense = dense
		infos := skipTree()
		got := map[sim.NodeID]bool{}
		tab := &Table{}
		tab.Register(3, skipProto(got))
		nodes, eng := record(infos, tab)
		nodes[0].r.Start(eng.Context(0), infos[0], 3, 1, nil)
		eng.RunUntil(func() bool { return !eng.Pending() }, 100)
		var started, owned []string
		for id, n := range nodes {
			if len(n.starts) > 0 {
				started = append(started, fmt.Sprint(id))
			}
			if got[sim.NodeID(id)] {
				owned = append(owned, fmt.Sprint(id))
			}
			if len(n.r.states) != 0 {
				t.Errorf("dense=%v: node %d keeps %d instance states", dense, id, len(n.r.states))
			}
		}
		wantStarted, wantOwned := "1 3 5", "0 1 3"
		if dense {
			wantStarted, wantOwned = "1 2 3 4 5", "0 1 2 3 4 5"
		}
		if s := strings.Join(started, " "); s != wantStarted {
			t.Errorf("dense=%v: starts reached %s, want %s", dense, s, wantStarted)
		}
		if s := strings.Join(owned, " "); s != wantOwned {
			t.Errorf("dense=%v: own parts reached %s, want %s", dense, s, wantOwned)
		}
	}
	Dense = false

	infos := skipTree()
	tab := &Table{}
	tab.Register(3, skipProto(map[sim.NodeID]bool{}))
	nodes, eng := record(infos, tab)
	nodes[0].r.Start(eng.Context(0), infos[0], 3, 1, nil)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "which it skips") {
			t.Errorf("an up from a skipped child: panic %v", r)
		}
	}()
	nodes[0].r.Handle(eng.Context(0), infos[0], 2, &UpMsg{Tag: 3, Seq: 1, V: IntVal(0)})
}
