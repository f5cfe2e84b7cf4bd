package aggtree

import (
	"fmt"
	"strings"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/sim"
)

// paramsProto echoes the anchor's start parameters back from every node,
// verifying parameter propagation through StartMsg.
func TestParamsPropagation(t *testing.T) {
	n := 9
	var got []int64
	proto := &Proto{
		Name: "echo-params",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value) Value {
			got = append(got, int64(params.(IntVal)))
			return IntVal(0)
		},
		Combine: func(self *ldb.VInfo, seq uint64, params Value, own Value, kids []KidValue) Value {
			return IntVal(0)
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, combined Value) Value {
			return nil
		},
	}
	ov, eng, nodes := buildNetwork(n, 777, func(t *Table) { t.Register(5, proto) })
	nodes[ov.Anchor].r.Start(eng.Context(ov.Anchor), ov.Info(ov.Anchor), 5, 3, IntVal(42))
	eng.RunUntil(func() bool { return len(got) == 3*n }, 10000)
	if len(got) != 3*n {
		t.Fatalf("Own ran at %d of %d nodes", len(got), 3*n)
	}
	for _, v := range got {
		if v != 42 {
			t.Fatalf("params corrupted: %v", got)
		}
	}
}

// TestNilKidPartsNotSent: a Split returning nil for a child must not send
// a DownMsg to it.
func TestNilKidPartsNotSent(t *testing.T) {
	n := 6
	received := 0
	proto := &Proto{
		Name: "nil-parts",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value) Value {
			return IntVal(1)
		},
		Combine: func(self *ldb.VInfo, seq uint64, params Value, own Value, kids []KidValue) Value {
			return IntVal(1)
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, combined Value) Value {
			return NilVal{}
		},
		Split: func(self *ldb.VInfo, seq uint64, params Value, down Value, own Value, kids []KidValue) (Value, []Value) {
			// Only the anchor's own part is delivered; children get nil.
			parts := make([]Value, len(kids))
			return NilVal{}, parts
		},
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, ownPart Value) {
			received++
		},
	}
	ov, eng, nodes := buildNetwork(n, 778, func(t *Table) { t.Register(6, proto) })
	nodes[ov.Anchor].r.Start(eng.Context(ov.Anchor), ov.Info(ov.Anchor), 6, 0, nil)
	for i := 0; i < 2000; i++ {
		eng.Step()
	}
	if received != 1 {
		t.Fatalf("OnOwn ran %d times; only the anchor should scatter to itself", received)
	}
}

// TestUnknownTagFallsThrough: a runner without the message's tag must
// return false so a second runner can claim it.
func TestUnknownTagFallsThrough(t *testing.T) {
	ov := ldb.New(2, hashutil.New(779))
	tab := &Table{}
	tab.Register(1, &Proto{Name: "known"})
	r := tab.Runner()
	msg := &UpMsg{Tag: 99, Seq: 0, V: IntVal(1)}
	if r.Handle(nil, ov.Info(ov.Anchor), 0, msg) {
		t.Fatal("unknown tag must not be consumed")
	}
	start := &StartMsg{Tag: 42}
	if r.Handle(nil, ov.Info(ov.Anchor), 0, start) {
		t.Fatal("unknown start tag must not be consumed")
	}
	down := &DownMsg{Tag: 17, V: NilVal{}}
	if r.Handle(nil, ov.Info(ov.Anchor), 0, down) {
		t.Fatal("unknown down tag must not be consumed")
	}
}

// TestDoubleStartPanics: starting the same (tag, seq) twice is a protocol
// error.
func TestDoubleStartPanics(t *testing.T) {
	ov, eng, nodes := buildNetwork(1, 780, func(tab *Table) {
		tab.Register(1, &Proto{
			Name: "dup",
			Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value) Value {
				return IntVal(0)
			},
			Combine: func(self *ldb.VInfo, seq uint64, params Value, own Value, kids []KidValue) Value {
				return IntVal(0)
			},
			AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, combined Value) Value {
				return nil
			},
		})
	})
	nodes[ov.Anchor].r.Start(eng.Context(ov.Anchor), ov.Info(ov.Anchor), 1, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nodes[ov.Anchor].r.Start(eng.Context(ov.Anchor), ov.Info(ov.Anchor), 1, 0, nil)
}

// TestScatterlessRootPanics: an instance of a scattering Proto must end
// with a scatter; an AtRoot that returns nil would leave every other node
// holding the instance's gather state. A gather-only Proto (no Split) must
// not return a value to scatter: nothing could split it.
func TestScatterlessRootPanics(t *testing.T) {
	split := func(self *ldb.VInfo, seq uint64, params Value, down Value, own Value, kids []KidValue) (Value, []Value) {
		return down, make([]Value, len(kids))
	}
	for _, c := range []struct {
		name  string
		split func(self *ldb.VInfo, seq uint64, params Value, down Value, own Value, kids []KidValue) (Value, []Value)
		down  Value
		want  string
	}{
		{"mute", split, nil, "without a scatter"},
		{"loud", nil, IntVal(1), "a gather-only AtRoot returned a value"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ov, eng, nodes := buildNetwork(1, 781, func(tab *Table) {
				tab.Register(1, &Proto{
					Name: c.name,
					Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value) Value {
						return IntVal(0)
					},
					Combine: func(self *ldb.VInfo, seq uint64, params Value, own Value, kids []KidValue) Value {
						return IntVal(0)
					},
					AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params Value, combined Value) Value {
						return c.down
					},
					Split: c.split,
				})
			})
			nodes[ov.Anchor].r.Start(eng.Context(ov.Anchor), ov.Info(ov.Anchor), 1, 1, nil)
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), c.want) {
					t.Fatalf("recovered %v, want a panic saying %q", r, c.want)
				}
			}()
			eng.RunUntil(func() bool { return false }, 1000)
		})
	}
}
