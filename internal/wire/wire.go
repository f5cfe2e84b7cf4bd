// Package wire is the deterministic, versioned binary codec of the network
// runtime: every protocol message the simulators exchange in memory
// (internal/sim, internal/skeap, internal/seap, internal/kselect,
// internal/ldb, internal/aggtree, internal/dht and the batch values Skeap
// aggregates) registers an encoder/decoder pair here, keyed by a stable
// wire name derived from the message's protocol role. internal/netrun uses
// the codec to move the exact same messages over TCP frames that the
// in-process engines move through channels.
//
// Format rules — chosen so that two builds of the same version produce
// byte-identical encodings and a decoder can never be driven to panic:
//
//   - all integers are fixed-width big-endian (no varints, no reflection);
//   - strings and slices carry a u32 length checked against the remaining
//     input before allocation;
//   - nested messages are encoded as a u32 kind id (the FNV-1a hash of the
//     registered wire name; 0 encodes a nil message) followed by the
//     message body, with a bounded nesting depth;
//   - decoding consumes the whole input: trailing bytes are an error, so
//     the encoding of every message is canonical and Unmarshal∘Marshal is
//     the identity on valid wire bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dpq/internal/prio"
)

// Version is the codec version. It is carried in the netrun connection
// handshake, not per message: all messages of one connection share it.
// Version 2 is the sequenced peer session: the handshake states a stream
// position and control frames carry cumulative acknowledgements; message
// encodings are those of version 1.
const Version uint16 = 2

// MaxNesting bounds recursive message nesting while decoding. The deepest
// legitimate chain is transport frame → routed message → DHT payload.
const MaxNesting = 8

// maxLen caps any single length field (strings, slices) at 1 MiB worth of
// minimum-sized elements; real protocol messages are far smaller.
const maxLen = 1 << 20

// ErrTruncated reports input that ended before the value it promised.
var ErrTruncated = errors.New("wire: truncated input")

// Writer appends canonically encoded values to a buffer. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the writer, keeping the buffer's capacity for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Truncate cuts the encoded buffer back to its first n bytes — how a caller
// that framed a header takes it back when the body fails to encode.
func (w *Writer) Truncate(n int) { w.buf = w.buf[:n] }

// Swap installs buf as the writer's buffer (appends continue after its
// current length) and returns the one it held, so a long-lived writer can
// hand a filled buffer on and keep encoding into a recycled one.
func (w *Writer) Swap(buf []byte) []byte {
	old := w.buf
	w.buf = buf
	return old
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a big-endian 16-bit integer.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian 32-bit integer.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian 64-bit integer.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// I64 appends a signed 64-bit integer (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 by its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a u32 length followed by the raw bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Len appends a slice length as u32.
func (w *Writer) Len(n int) { w.U32(uint32(n)) }

// Element appends a prio.Element (id, priority, payload).
func (w *Writer) Element(e prio.Element) {
	w.U64(uint64(e.ID))
	w.U64(uint64(e.Prio))
	w.String(e.Payload)
}

// Key appends a prio.Key (priority, id).
func (w *Writer) Key(k prio.Key) {
	w.U64(uint64(k.Prio))
	w.U64(uint64(k.ID))
}

// Reader decodes canonically encoded values from a buffer. Errors latch:
// after the first failure every subsequent read returns a zero value, so
// decoders can run straight-line and check Err once.
type Reader struct {
	buf   []byte
	off   int
	depth int
	err   error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Reset points the reader at data and clears its position and latched
// error: one long-lived Reader decodes a whole stream of frames without an
// allocation per frame.
func (r *Reader) Reset(data []byte) { *r = Reader{buf: data} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail latches err (the first call wins) — decoders use it to reject
// structurally invalid values, e.g. a nil nested message where the
// protocol requires one.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a 0/1 byte, rejecting any other value (canonical form).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(errors.New("wire: non-canonical bool"))
		return false
	}
}

// U16 reads a big-endian 16-bit integer.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian 32-bit integer.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian 64-bit integer.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a signed 64-bit integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a u32 length and that many bytes.
func (r *Reader) String() string {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Len reads a slice length and validates it against the remaining input:
// a claimed count of n elements of at least elemMin bytes each cannot
// exceed what is left, so hostile lengths fail before any allocation.
func (r *Reader) Len(elemMin int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if n > maxLen || int(n)*elemMin > r.Remaining() {
		r.Fail(fmt.Errorf("wire: length %d exceeds remaining input", n))
		return 0
	}
	return int(n)
}

// Element reads a prio.Element.
func (r *Reader) Element() prio.Element {
	id := r.U64()
	p := r.U64()
	payload := r.String()
	return prio.Element{ID: prio.ElemID(id), Prio: prio.Priority(p), Payload: payload}
}

// Key reads a prio.Key.
func (r *Reader) Key() prio.Key {
	p := r.U64()
	id := r.U64()
	return prio.Key{Prio: prio.Priority(p), ID: prio.ElemID(id)}
}
