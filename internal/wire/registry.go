package wire

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"dpq/internal/sim"
)

// EncodeFunc appends msg's body (no kind id) to w.
type EncodeFunc func(w *Writer, msg sim.Message)

// DecodeFunc reads one message body from r. It must consume exactly the
// bytes the matching EncodeFunc wrote and must never panic on hostile
// input: structural errors latch on r.
type DecodeFunc func(r *Reader) sim.Message

type entry struct {
	name    string
	id      uint32
	enc     EncodeFunc
	dec     DecodeFunc
	samples []sim.Message
}

// registry is one immutable generation of the codec tables. Register
// builds the next generation from a copy and swaps it in, so the encode and
// decode paths read the tables with one atomic load and no lock: every
// registration happens in a package init function, long before the first
// frame, and the tables never change again.
type registry struct {
	byType map[reflect.Type]*entry
	byID   map[uint32]*entry
	byName map[string]*entry
}

var (
	regMu sync.Mutex // serializes Register
	// reg is set by a variable initializer, not an init function: those run
	// in file order and the first Register call comes from one.
	reg = func() *atomic.Pointer[registry] {
		p := new(atomic.Pointer[registry])
		p.Store(&registry{byType: map[reflect.Type]*entry{}, byID: map[uint32]*entry{}, byName: map[string]*entry{}})
		return p
	}()
)

// nilID is reserved: it encodes a nil nested message.
const nilID = uint32(0)

// fnv32a is the FNV-1a hash of the wire name; it is the message's on-wire
// kind id. Stable across builds by construction (pure function of the
// name), unlike registration order.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Register adds a codec for prototype's concrete type under the given wire
// name. samples are valid instances used by the round-trip and fuzz tests
// (RegisteredSamples); every registration must provide at least one.
// Register panics on duplicate names, duplicate types and id collisions —
// all registrations happen in package init functions, so a collision is a
// build-time defect, not a runtime condition.
func Register(name string, prototype sim.Message, enc EncodeFunc, dec DecodeFunc, samples ...sim.Message) {
	if name == "" || prototype == nil || enc == nil || dec == nil {
		panic("wire: incomplete registration for " + name)
	}
	if len(samples) == 0 {
		panic("wire: registration of " + name + " provides no samples")
	}
	t := reflect.TypeOf(prototype)
	id := fnv32a(name)
	regMu.Lock()
	defer regMu.Unlock()
	cur := reg.Load()
	if id == nilID {
		panic("wire: name " + name + " hashes to the reserved nil id")
	}
	if _, dup := cur.byName[name]; dup {
		panic("wire: duplicate registration of name " + name)
	}
	if _, dup := cur.byType[t]; dup {
		panic(fmt.Sprintf("wire: duplicate registration of type %v (name %s)", t, name))
	}
	if prev, dup := cur.byID[id]; dup {
		panic(fmt.Sprintf("wire: id collision between %s and %s — rename one", prev.name, name))
	}
	e := &entry{name: name, id: id, enc: enc, dec: dec, samples: samples}
	next := &registry{byType: maps.Clone(cur.byType), byID: maps.Clone(cur.byID), byName: maps.Clone(cur.byName)}
	next.byType[t], next.byID[id], next.byName[name] = e, e, e
	reg.Store(next)
}

func lookupType(msg sim.Message) (*entry, error) {
	e := reg.Load().byType[reflect.TypeOf(msg)]
	if e == nil {
		return nil, fmt.Errorf("wire: unregistered message type %T", msg)
	}
	return e, nil
}

// writerPool recycles encode buffers for the framing hot path. Buffers
// above recycleCap are dropped rather than pooled so one huge message does
// not pin memory forever.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// recycleCap is the largest buffer capacity GetWriter keeps in the pool.
const recycleCap = 1 << 20

// GetWriter returns an empty pooled writer. Return it with PutWriter when
// the encoded bytes have been copied out.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter recycles w. The caller must not retain w.Bytes() afterwards.
func PutWriter(w *Writer) {
	if cap(w.buf) <= recycleCap {
		writerPool.Put(w)
	}
}

// Marshal encodes msg (kind id + body) into a fresh buffer.
func Marshal(msg sim.Message) ([]byte, error) {
	return MarshalAppend(nil, msg)
}

// MarshalAppend encodes msg (kind id + body) appended to dst and returns
// the extended slice — the allocation-free form of Marshal for callers
// that own a reusable buffer. On error dst is returned unchanged.
func MarshalAppend(dst []byte, msg sim.Message) ([]byte, error) {
	w := Writer{buf: dst}
	err := w.Marshal(msg)
	return w.buf, err
}

// Marshal appends msg (kind id + body) to w as a top-level message — what
// MarshalAppend does, for a caller that keeps its Writer (the func-valued
// encoders make a Writer escape, so a fresh one per message is a heap
// allocation). On error w is unchanged.
func (w *Writer) Marshal(msg sim.Message) error {
	if msg == nil {
		return fmt.Errorf("wire: cannot marshal nil message")
	}
	e, err := lookupType(msg)
	if err != nil {
		return err
	}
	w.U32(e.id)
	e.enc(w, msg)
	return nil
}

// Unmarshal decodes one message from data, requiring that the whole input
// is consumed (canonical encoding).
func Unmarshal(data []byte) (sim.Message, error) {
	r := NewReader(data)
	msg := r.Message()
	if r.err == nil && msg == nil {
		return nil, fmt.Errorf("wire: nil message at top level")
	}
	if r.err == nil && r.Remaining() > 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after message", r.Remaining())
	}
	if r.err != nil {
		return nil, r.err
	}
	return msg, nil
}

// Message appends a nested message (kind id + body) to w; nil encodes as
// the reserved id 0. Encoders of messages that carry payloads
// (sim.TransportMsg, ldb.RouteMsg, aggtree values) use this. Unregistered
// nested types panic: they can only occur through a registration gap, which
// the round-trip tests catch.
func (w *Writer) Message(msg sim.Message) {
	if msg == nil {
		w.U32(nilID)
		return
	}
	e, err := lookupType(msg)
	if err != nil {
		panic(err)
	}
	w.U32(e.id)
	e.enc(w, msg)
}

// Message reads a nested message: a kind id (0 decodes as nil) followed by
// the registered body. Decoding depth is bounded by MaxNesting.
func (r *Reader) Message() sim.Message {
	id := r.U32()
	if r.err != nil {
		return nil
	}
	if id == nilID {
		return nil
	}
	e := reg.Load().byID[id]
	if e == nil {
		r.Fail(fmt.Errorf("wire: unknown message kind id %#x", id))
		return nil
	}
	if r.depth >= MaxNesting {
		r.Fail(fmt.Errorf("wire: message nesting deeper than %d", MaxNesting))
		return nil
	}
	r.depth++
	msg := e.dec(r)
	r.depth--
	if r.err != nil {
		return nil
	}
	if msg == nil {
		r.Fail(fmt.Errorf("wire: decoder for %s returned nil without error", e.name))
		return nil
	}
	return msg
}

// MustMessage reads a nested message and rejects nil — for protocol fields
// where a payload is mandatory.
func (r *Reader) MustMessage() sim.Message {
	msg := r.Message()
	if r.err == nil && msg == nil {
		r.Fail(fmt.Errorf("wire: nil nested message where one is required"))
	}
	return msg
}

// RegisteredNames returns the sorted wire names of all registrations.
func RegisteredNames() []string {
	byName := reg.Load().byName
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Samples returns the registered sample messages for name (nil if unknown).
// The round-trip test encodes and decodes every sample of every name.
func Samples(name string) []sim.Message {
	e := reg.Load().byName[name]
	if e == nil {
		return nil
	}
	return e.samples
}
