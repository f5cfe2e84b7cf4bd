package seap

// Wire registrations for Seap's tree values. They are unexported protocol
// internals, so their codecs must live in this package.

import (
	"dpq/internal/prio"
	"dpq/internal/sim"
	"dpq/internal/wire"
)

func init() {
	wire.Register("seap/val-share", &valShare{},
		func(w *wire.Writer, msg sim.Message) {
			v := msg.(*valShare)
			w.I64(v.Lo)
			w.I64(v.Hi)
			w.U64(v.Cycle)
			w.I64(v.KStar)
		},
		func(r *wire.Reader) sim.Message {
			v := &valShare{}
			v.Lo = r.I64()
			v.Hi = r.I64()
			v.Cycle = r.U64()
			v.KStar = r.I64()
			return v
		},
		&valShare{Lo: 3, Hi: 9, Cycle: 2, KStar: 5},
	)
	wire.Register("seap/assign-params", &assignParams{},
		func(w *wire.Writer, msg sim.Message) {
			p := msg.(*assignParams)
			w.U64(p.Cycle)
			w.Key(p.Threshold)
		},
		func(r *wire.Reader) sim.Message {
			return &assignParams{Cycle: r.U64(), Threshold: r.Key()}
		},
		&assignParams{Cycle: 3, Threshold: prio.Key{Prio: 1000, ID: 4}},
	)
}
