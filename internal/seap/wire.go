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
			w.I64(v.ValLo)
			w.I64(v.ValHi)
			w.I64(v.PosLo)
			w.I64(v.PosHi)
			w.U64(v.Cycle)
			w.I64(v.KStar)
		},
		func(r *wire.Reader) sim.Message {
			return &valShare{ValLo: r.I64(), ValHi: r.I64(), PosLo: r.I64(), PosHi: r.I64(), Cycle: r.U64(), KStar: r.I64()}
		},
		&valShare{ValLo: 3, ValHi: 9, PosLo: 1, PosHi: 4, Cycle: 2, KStar: 5},
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
