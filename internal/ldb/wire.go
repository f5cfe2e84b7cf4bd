package ldb

// Wire registrations for the overlay messages. RouteMsg carries a nested
// payload; labels and cycle points travel as their IEEE-754 bit patterns,
// which round-trip exactly.

import (
	"dpq/internal/sim"
	"dpq/internal/wire"
)

func init() {
	route := &RouteMsg{Target: 0.375, Hops: 7, Path: 2, Payload: &SpliceMsg{NewLabel: 0.5, NewHost: 3}}
	route.seal()
	wire.Register("ldb/route", &RouteMsg{},
		func(w *wire.Writer, msg sim.Message) {
			m := msg.(*RouteMsg)
			w.F64(m.Target)
			w.I64(int64(m.Hops))
			w.I64(int64(m.Path))
			w.Message(m.Payload)
		},
		func(r *wire.Reader) sim.Message {
			m := &RouteMsg{}
			m.Target = r.F64()
			m.Hops = int(r.I64())
			m.Path = int(r.I64())
			m.Payload = r.MustMessage()
			m.seal()
			return m
		},
		route,
	)
	wire.Register("ldb/splice", &SpliceMsg{},
		func(w *wire.Writer, msg sim.Message) {
			m := msg.(*SpliceMsg)
			w.F64(m.NewLabel)
			w.U64(m.NewHost)
		},
		func(r *wire.Reader) sim.Message {
			return &SpliceMsg{NewLabel: r.F64(), NewHost: r.U64()}
		},
		&SpliceMsg{NewLabel: 0.125, NewHost: 11},
	)
	wire.Register("ldb/leave", &LeaveMsg{},
		func(w *wire.Writer, msg sim.Message) {
			w.I64(int64(msg.(*LeaveMsg).Replacement))
		},
		func(r *wire.Reader) sim.Message {
			return &LeaveMsg{Replacement: sim.NodeID(r.I64())}
		},
		&LeaveMsg{Replacement: 5},
		&LeaveMsg{Replacement: sim.None},
	)
	wire.Register("ldb/midpred", &MidPredMsg{},
		func(w *wire.Writer, msg sim.Message) {
			w.I64(int64(msg.(*MidPredMsg).Mid))
		},
		func(r *wire.Reader) sim.Message {
			return &MidPredMsg{Mid: sim.NodeID(r.I64())}
		},
		&MidPredMsg{Mid: 7},
		&MidPredMsg{Mid: sim.None},
	)
}
