package sim

// Engine construction. Build takes one options struct (engine family,
// congestion grouping, observer) and returns the engine behind the Engine
// interface; BuildFaulty adds a fault plan and reliable transports.
// Protocols describe their wiring as a Spec (Handlers, Seed, congestion
// grouping) and drivers fill in the rest.

// EngineKind selects the engine family a Spec builds. The paper has
// exactly two execution models (§1.1), and so does this package.
type EngineKind uint8

const (
	// KindSync is the synchronous round engine (SyncEngine) — the model the
	// paper's performance theorems are stated in. Default.
	KindSync EngineKind = iota
	// KindAsync is the seeded asynchronous engine (AsyncEngine) — the model
	// the paper's safety arguments assume.
	KindAsync
)

// Spec describes an engine to Build. Zero values mean "default": identity
// congestion grouping, no observer.
type Spec struct {
	Kind     EngineKind
	Handlers []Handler
	Seed     uint64

	// Groups/Group define congestion grouping (node → real process).
	// Leave Group nil for the identity mapping.
	Groups int
	Group  func(NodeID) int

	// MaxDelay bounds the asynchronous engine's random delivery delay
	// (uniform in (0, MaxDelay]); 0 defaults to 1.0. KindAsync only.
	MaxDelay float64

	// Observer sees every delivery, in handler order (see SetObserver).
	Observer func(Delivery)
}

// Engine is what a driver needs of an engine, whichever family runs
// underneath: inject through Context, run until the protocol reports
// completion, read the cost. budget counts rounds on the synchronous
// engine and processed events on the asynchronous one. Family-specific
// control (SyncEngine.Step/RunQuiescent/Pending, AsyncEngine.Faults) stays
// on the concrete types — assert the result of Build when the kind is
// statically known.
type Engine interface {
	Context(id NodeID) *Context
	RunUntil(done func() bool, budget int) bool
	Metrics() *Metrics
	SetObserver(func(Delivery))
}

var (
	_ Engine = (*SyncEngine)(nil)
	_ Engine = (*AsyncEngine)(nil)
)

// Build constructs the fault-free engine a Spec describes. A field that
// does not apply to the requested kind (MaxDelay on a sync engine) is
// rejected with a panic: a Spec is written by the programmer, and a
// silently ignored field would misreport what an experiment measured.
func Build(spec Spec) Engine {
	var eng Engine
	switch spec.Kind {
	case KindSync:
		if spec.MaxDelay != 0 {
			panic("sim: Spec.MaxDelay requires KindAsync")
		}
		eng = newSync(spec.Handlers, spec.Seed, spec.Groups, spec.Group)
	case KindAsync:
		eng = newAsync(spec.Handlers, spec.Seed, spec.MaxDelay, spec.Groups, spec.Group)
	default:
		panic("sim: unknown engine kind")
	}
	eng.SetObserver(spec.Observer)
	return eng
}

// BuildFaulty builds spec (KindAsync) as an engine governed by plan, with
// every handler behind a ReliableTransport so dropped, duplicated and
// crash-swallowed messages are retried and suppressed. It is the only way
// to build a faulty engine. The protocol must drive itself (autoRepeat,
// the default): a manually started batch is sent around the transports
// and would not survive a drop. The transports are returned for overhead
// stats.
func BuildFaulty(spec Spec, maxDelay float64, plan *FaultPlan) (*AsyncEngine, []*ReliableTransport) {
	if spec.Kind != KindAsync {
		panic("sim: BuildFaulty requires KindAsync")
	}
	handlers, transports := WrapAllReliable(spec.Handlers, TransportConfig{})
	e := newAsync(handlers, spec.Seed, maxDelay, spec.Groups, spec.Group)
	e.SetFaultPlan(plan)
	e.SetObserver(spec.Observer)
	return e, transports
}
