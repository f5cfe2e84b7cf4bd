package main

import (
	"path"
	"reflect"
	"regexp"
	"time"

	"dpq/internal/ldb"
	"dpq/internal/sim"
)

// handlerClock accumulates the time one engine spends inside handlers. An
// engine runs its handlers on one goroutine, so the clock needs no lock;
// read it after the engine stopped.
type handlerClock struct {
	// actPeriod is the sampling period of Activate calls: clockPeriod on
	// the simulator, where activations are the bulk of all calls, and 1 on
	// a daemon, where they are few and some are long.
	actPeriod uint64
	rng       uint64        // sampling state
	total     time.Duration // in HandleMessage, timed calls only
	buckets   map[[2]reflect.Type]*msgBucket
	// activate is the time in Activate, by the package of the handler.
	activate map[string]*time.Duration
}

// msgBucket is one message kind's share.
type msgBucket struct {
	pkg  string        // package of the message type: skeap, aggtree, dht, ...
	kind string        // sim.KindOf without the instance tag
	n    int64         // timed deliveries; ×clockPeriod estimates all
	busy time.Duration // time in the timed deliveries
}

// clockPeriod is the sampling period of a handlerClock: reading the clock
// twice costs more than the median handler call, so only every
// clockPeriod-th call on average is timed and counted, and readers scale
// up.
const clockPeriod = 32

// clockCost is what one timed call's reading includes beyond the call: the
// time between two back-to-back clock readings, calibrated at start-up and
// subtracted from every timed call.
var clockCost = func() time.Duration {
	var s sample
	for i := 0; i < 2001; i++ {
		t0 := time.Now()
		s.add(float64(time.Since(t0)))
	}
	return time.Duration(s.median())
}()

// timedSince is the duration of a timed call that began at t0.
func timedSince(t0 time.Time) time.Duration {
	d := time.Since(t0) - clockCost
	if d < 0 {
		return 0
	}
	return d
}

// sampled reports whether the current call is one to time: one in period,
// drawn at random (xorshift), because message streams and activation sweeps
// are periodic and a fixed stride falls in step with them.
func (c *handlerClock) sampled(period uint64) bool {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng%period == 0
}

// busy estimates the total time spent in handlers.
func (c *handlerClock) busy() time.Duration {
	d := c.total * clockPeriod
	for _, a := range c.activate {
		d += *a * time.Duration(c.actPeriod)
	}
	return d
}

func newHandlerClock(actPeriod uint64) *handlerClock {
	return &handlerClock{actPeriod: actPeriod, rng: 0x9E3779B97F4A7C15, buckets: map[[2]reflect.Type]*msgBucket{}, activate: map[string]*time.Duration{}}
}

var kindTag = regexp.MustCompile(`\[[^\]]*\]`)

// pkgOf names the package that declares the dynamic type of v.
func pkgOf(v any) string {
	t := reflect.TypeOf(v)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return path.Base(t.PkgPath())
}

func (c *handlerClock) bucket(msg sim.Message) *msgBucket {
	key := [2]reflect.Type{reflect.TypeOf(msg)}
	var payload sim.Message
	if rm, ok := msg.(*ldb.RouteMsg); ok {
		// A routed message is the business of whoever routes it: DHT puts
		// and gets, KSelect samples and copies.
		payload = rm.Payload
		key[1] = reflect.TypeOf(payload)
	}
	b := c.buckets[key]
	if b == nil {
		b = &msgBucket{pkg: pkgOf(msg), kind: kindTag.ReplaceAllString(sim.KindOf(msg), "")}
		if payload != nil {
			b.pkg = pkgOf(payload)
		}
		c.buckets[key] = b
	}
	return b
}

// byPackage sums handler time per package: message time by the message's
// package, activation time by the handler's.
func (c *handlerClock) byPackage() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, b := range c.buckets {
		out[b.pkg] += b.busy * clockPeriod
	}
	for pkg, d := range c.activate {
		out[pkg] += *d * time.Duration(c.actPeriod)
	}
	return out
}

// timedHandler times a handler's calls into a clock. With detail it also
// attributes message time to the message kind.
type timedHandler struct {
	inner  sim.Handler
	clk    *handlerClock
	act    *time.Duration // the clock's activation total for this handler's package
	detail bool
}

func (h *timedHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	if !h.clk.sampled(clockPeriod) {
		h.inner.HandleMessage(ctx, from, msg)
		return
	}
	t0 := time.Now()
	h.inner.HandleMessage(ctx, from, msg)
	d := timedSince(t0)
	h.clk.total += d
	if h.detail {
		b := h.clk.bucket(msg)
		b.n++
		b.busy += d
	}
}

func (h *timedHandler) Activate(ctx *sim.Context) {
	if !h.clk.sampled(h.clk.actPeriod) {
		h.inner.Activate(ctx)
		return
	}
	t0 := time.Now()
	h.inner.Activate(ctx)
	*h.act += timedSince(t0)
}

// timeHandlers wraps every handler of a network with one clock.
func timeHandlers(hs []sim.Handler, clk *handlerClock, detail bool) []sim.Handler {
	out := make([]sim.Handler, len(hs))
	flat := make([]timedHandler, len(hs))
	for i, h := range hs {
		if h == nil {
			continue
		}
		pkg := pkgOf(h)
		if clk.activate[pkg] == nil {
			clk.activate[pkg] = new(time.Duration)
		}
		flat[i] = timedHandler{inner: h, clk: clk, act: clk.activate[pkg], detail: detail}
		out[i] = &flat[i]
	}
	return out
}
