package kselect

// Wire registrations for the KSelect sorting/sampling messages, including
// the unexported aggregate values that only exist inside tree frames.

import (
	"dpq/internal/prio"
	"dpq/internal/sim"
	"dpq/internal/wire"
)

func init() {
	wire.Register("sort/sample-root", &SampleRootMsg{},
		func(w *wire.Writer, msg sim.Message) {
			m := msg.(*SampleRootMsg)
			w.U64(m.Epoch)
			w.I64(m.Pos)
			w.I64(m.NPrime)
			w.Element(m.Elem)
			w.I64(int64(m.Issuer))
		},
		func(r *wire.Reader) sim.Message {
			m := &SampleRootMsg{}
			m.Epoch = r.U64()
			m.Pos = r.I64()
			m.NPrime = r.I64()
			m.Elem = r.Element()
			m.Issuer = sim.NodeID(r.I64())
			return m
		},
		&SampleRootMsg{Epoch: 2, Pos: 14, NPrime: 40, Elem: prio.Element{ID: 8, Prio: 3}, Issuer: 9},
	)
	wire.Register("sort/seek", &DistSeekMsg{},
		func(w *wire.Writer, msg sim.Message) {
			m := msg.(*DistSeekMsg)
			w.U64(m.Epoch)
			w.I64(m.Root)
			w.I64(m.Lo)
			w.I64(m.Hi)
			w.Key(m.Key)
			w.I64(int64(m.Bit))
			w.I64(int64(m.Parent))
			w.I64(m.ParentJ)
		},
		func(r *wire.Reader) sim.Message {
			m := &DistSeekMsg{}
			m.Epoch = r.U64()
			m.Root = r.I64()
			m.Lo = r.I64()
			m.Hi = r.I64()
			m.Key = r.Key()
			m.Bit = int(r.I64())
			m.Parent = sim.NodeID(r.I64())
			m.ParentJ = r.I64()
			return m
		},
		&DistSeekMsg{Epoch: 1, Root: 3, Lo: 0, Hi: 6, Key: prio.Key{Prio: 2, ID: 5}, Bit: 1, Parent: 4, ParentJ: 2},
	)
	wire.Register("sort/arrive", &DistArriveMsg{},
		func(w *wire.Writer, msg sim.Message) {
			m := msg.(*DistArriveMsg)
			w.U64(m.Epoch)
			w.I64(m.Root)
			w.I64(m.Lo)
			w.I64(m.Hi)
			w.Key(m.Key)
			w.I64(int64(m.Parent))
			w.I64(m.ParentJ)
		},
		func(r *wire.Reader) sim.Message {
			m := &DistArriveMsg{}
			m.Epoch = r.U64()
			m.Root = r.I64()
			m.Lo = r.I64()
			m.Hi = r.I64()
			m.Key = r.Key()
			m.Parent = sim.NodeID(r.I64())
			m.ParentJ = r.I64()
			return m
		},
		&DistArriveMsg{Epoch: 1, Root: 3, Lo: 0, Hi: 6, Key: prio.Key{Prio: 2, ID: 5}, Parent: sim.None, ParentJ: 0},
	)
	wire.Register("sort/copy", &CopyMsg{},
		func(w *wire.Writer, msg sim.Message) {
			m := msg.(*CopyMsg)
			w.U64(m.Epoch)
			w.I64(m.I)
			w.I64(m.J)
			w.Key(m.Key)
			w.I64(int64(m.Holder))
		},
		func(r *wire.Reader) sim.Message {
			m := &CopyMsg{}
			m.Epoch = r.U64()
			m.I = r.I64()
			m.J = r.I64()
			m.Key = r.Key()
			m.Holder = sim.NodeID(r.I64())
			return m
		},
		&CopyMsg{Epoch: 4, I: 2, J: 3, Key: prio.Key{Prio: 1, ID: 6}, Holder: 7},
	)
	wire.Register("sort/vector", &VecMsg{},
		func(w *wire.Writer, msg sim.Message) {
			m := msg.(*VecMsg)
			w.U64(m.Epoch)
			w.I64(m.Root)
			w.I64(m.J)
			w.I64(m.L)
			w.I64(m.R)
		},
		func(r *wire.Reader) sim.Message {
			m := &VecMsg{}
			m.Epoch = r.U64()
			m.Root = r.I64()
			m.J = r.I64()
			m.L = r.I64()
			m.R = r.I64()
			return m
		},
		&VecMsg{Epoch: 4, Root: 2, J: 3, L: 1, R: 5},
	)
	wire.Register("sort/ordered", &OrderedMsg{},
		func(w *wire.Writer, msg sim.Message) {
			m := msg.(*OrderedMsg)
			w.U64(m.Epoch)
			w.I64(m.Pos)
			w.I64(m.Order)
		},
		func(r *wire.Reader) sim.Message {
			return &OrderedMsg{Epoch: r.U64(), Pos: r.I64(), Order: r.I64()}
		},
		&OrderedMsg{Epoch: 3, Pos: 5, Order: 2},
	)

	wire.Register("kselect/window-params", &windowParams{},
		func(w *wire.Writer, msg sim.Message) {
			p := msg.(*windowParams)
			w.I64(p.K)
			w.Bool(p.First)
		},
		func(r *wire.Reader) sim.Message {
			return &windowParams{K: r.I64(), First: r.Bool()}
		},
		&windowParams{K: 300, First: true},
	)
	wire.Register("kselect/sample-params", &sampleParams{},
		func(w *wire.Writer, msg sim.Message) {
			p := msg.(*sampleParams)
			w.I64(p.N)
			w.U64(p.Epoch)
			w.Bool(p.Exact)
			w.Bool(p.First)
			w.Key(p.Lo)
			w.Key(p.Hi)
		},
		func(r *wire.Reader) sim.Message {
			p := &sampleParams{}
			p.N = r.I64()
			p.Epoch = r.U64()
			p.Exact = r.Bool()
			p.First = r.Bool()
			p.Lo = r.Key()
			p.Hi = r.Key()
			return p
		},
		&sampleParams{N: 128, Epoch: 6, First: true, Lo: prio.MinKey, Hi: prio.MaxKey},
		&sampleParams{N: 1, Epoch: 0, Exact: true, Lo: prio.Key{Prio: 4, ID: 9}, Hi: prio.Key{Prio: 7, ID: 2}},
	)
	wire.Register("kselect/pos-share", &posShare{},
		func(w *wire.Writer, msg sim.Message) {
			p := msg.(*posShare)
			w.I64(p.Lo)
			w.I64(p.Hi)
			w.I64(p.NPrime)
			w.I64(p.L)
			w.I64(p.R)
		},
		func(r *wire.Reader) sim.Message {
			return &posShare{Lo: r.I64(), Hi: r.I64(), NPrime: r.I64(), L: r.I64(), R: r.I64()}
		},
		&posShare{Lo: 1, Hi: 4, NPrime: 16, L: 3, R: 9},
	)
	wire.Register("kselect/done", doneVal{},
		func(w *wire.Writer, msg sim.Message) {
			v := msg.(doneVal)
			w.I64(v.Issued)
			w.Key(v.Lo)
			w.Key(v.Hi)
			w.Element(v.Ans)
			w.Bool(v.HasAns)
		},
		func(r *wire.Reader) sim.Message {
			return doneVal{Issued: r.I64(), Lo: r.Key(), Hi: r.Key(), Ans: r.Element(), HasAns: r.Bool()}
		},
		doneVal{Issued: 7, Lo: prio.Key{Prio: 2, ID: 5}, Hi: prio.MinKey},
		doneVal{Issued: 1, Lo: prio.MaxKey, Hi: prio.MinKey, Ans: prio.Element{ID: 3, Prio: 2, Payload: "p"}, HasAns: true},
	)
}
