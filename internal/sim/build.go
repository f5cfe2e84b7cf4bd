package sim

// Engine construction. Build takes one options struct covering every axis
// — engine family, fault plan, reliable transports,
// observers — and returns the engine behind the Engine interface. It is
// the only construction path: protocols describe their wiring as a Spec
// (Handlers, Seed, congestion grouping) and drivers fill in the rest.

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
// congestion grouping, fault-free, no observers.
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

	// Faults installs a fault plan consulted on every send and activation.
	// KindAsync only.
	Faults *FaultPlan

	// Reliable wraps every handler in a ReliableTransport (seq/ack/retry/
	// dedup) before construction — required for protocols to survive a
	// fault plan that drops or duplicates. Transport configures the wrap
	// (zero value = DefaultTransportConfig); OnTransports, when set,
	// receives the per-node transports for stats access.
	Reliable     bool
	Transport    TransportConfig
	OnTransports func([]*ReliableTransport)

	// Observer/BatchObserver are delivery observers (see SetObserver and
	// SetBatchObserver). BatchObserver is KindSync only.
	Observer      func(Delivery)
	BatchObserver func([]Delivery)
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

// Build constructs the engine a Spec describes. Options that do not apply
// to the requested kind (BatchObserver on an async engine, Faults on a
// sync one) are rejected with a panic: a Spec is written by the
// programmer, and a silently ignored field would misreport what an
// experiment measured.
func Build(spec Spec) Engine {
	handlers := spec.Handlers
	var transports []*ReliableTransport
	if spec.Reliable {
		handlers, transports = WrapAllReliable(handlers, spec.Transport)
	}
	var eng Engine
	switch spec.Kind {
	case KindSync:
		if spec.Faults != nil {
			panic("sim: Spec.Faults requires KindAsync")
		}
		if spec.MaxDelay != 0 {
			panic("sim: Spec.MaxDelay requires KindAsync")
		}
		e := newSync(handlers, spec.Seed, spec.Groups, spec.Group)
		if spec.BatchObserver != nil {
			e.SetBatchObserver(spec.BatchObserver)
		}
		eng = e
	case KindAsync:
		if spec.BatchObserver != nil {
			panic("sim: Spec.BatchObserver requires KindSync")
		}
		maxDelay := spec.MaxDelay
		if maxDelay == 0 {
			maxDelay = 1.0
		}
		e := newAsync(handlers, spec.Seed, maxDelay, spec.Groups, spec.Group)
		if spec.Faults != nil {
			e.SetFaultPlan(spec.Faults)
		}
		eng = e
	default:
		panic("sim: unknown engine kind")
	}
	if spec.Observer != nil {
		eng.SetObserver(spec.Observer)
	}
	if spec.OnTransports != nil {
		spec.OnTransports(transports)
	}
	return eng
}

// BuildFaulty builds spec (KindAsync) as an engine governed by plan, with
// every handler behind a ReliableTransport so dropped, duplicated and
// crash-swallowed messages are retried and suppressed. The protocol must
// drive itself (autoRepeat, the default): a manually started batch is sent
// around the transports and would not survive a drop. The transports are
// returned for overhead stats.
func BuildFaulty(spec Spec, maxDelay float64, plan *FaultPlan) (*AsyncEngine, []*ReliableTransport) {
	spec.MaxDelay = maxDelay
	spec.Faults = plan
	spec.Reliable = true
	var transports []*ReliableTransport
	spec.OnTransports = func(ts []*ReliableTransport) { transports = ts }
	return Build(spec).(*AsyncEngine), transports
}
