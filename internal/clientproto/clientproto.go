// Package clientproto is the client-facing protocol of cmd/dpqd: framed
// Insert/DeleteMin requests and completion responses over one TCP
// connection. Requests on a connection are served in order and pipelining
// is expected — the daemon answers when the heap protocol completes the
// operation, so many requests are usually in flight; the per-connection
// FIFO plus the daemon's per-connection host pinning makes response
// serialization values monotone per connection, which the load generator
// verifies.
//
// Frames reuse the internal/wire primitives: a u32 length prefix followed
// by the body. All decoding errors are returned, never panicked, so a
// daemon survives malformed clients. Rejections travel as typed error
// codes (ErrCode) carried in a StatusError response rather than as closed
// connections or bare strings: a well-delimited but invalid request frame
// yields a *ReqError on the server, which answers with the code and keeps
// serving, and the matching *ProtoError on the client.
package clientproto

import (
	"encoding/binary"
	"fmt"
	"io"

	"dpq/internal/wire"
)

// Op codes.
const (
	OpInsert = 1
	OpDelete = 2
	OpAck    = 3 // settle a leased element for good (ID names the element)
	OpNack   = 4 // return a leased element for immediate redelivery
	// OpLeaseScan iterates a daemon's live leases for restart
	// reconciliation: ID carries the cursor (scan after this element id)
	// and the response names the smallest leased id above it (StatusElem —
	// the element is only named, NOT leased to the caller) or StatusBottom
	// when the scan is done. Daemons issue it to each other; ordinary
	// clients never need it.
	OpLeaseScan = 5
)

// Response statuses.
const (
	StatusInserted = 1 // insert completed; ID echoes the assigned element id
	StatusElem     = 2 // delete returned an element, now leased to the caller
	StatusBottom   = 3 // delete returned ⊥ (empty heap)
	StatusError    = 4 // request rejected; Code carries the typed reason
	StatusAcked    = 5 // ack settled the element; it will never redeliver
	StatusNacked   = 6 // nack reinserted the element for redelivery
	// StatusUnavailable parks the request retryably: the daemon cannot
	// complete it right now because a peer daemon is down (degraded mode),
	// but retrying the same request later is expected to succeed. Code
	// carries the reason (ErrPeerUnavailable).
	StatusUnavailable = 7
)

// ErrCode is the typed rejection reason carried on the wire with
// StatusError. Codes are part of the protocol: never renumber, only
// append.
type ErrCode uint8

const (
	ErrNone            ErrCode = 0 // no error (required outside StatusError)
	ErrBadOp           ErrCode = 1 // unknown op code
	ErrMalformed       ErrCode = 2 // request body failed to decode
	ErrPayloadTooLarge ErrCode = 3 // insert payload exceeds MaxPayload
	ErrShuttingDown    ErrCode = 4 // daemon is draining; no new operations
	ErrOverloaded      ErrCode = 5 // too many operations in flight
	ErrUnknownLease    ErrCode = 6 // ack/nack named an element not leased here
	ErrPeerUnavailable ErrCode = 7 // replicating the ack to the owner daemon failed; retry
)

// errCodeCount is the number of defined codes (fuzz/round-trip tests
// iterate the full range).
const errCodeCount = 8

func (c ErrCode) String() string {
	switch c {
	case ErrNone:
		return "none"
	case ErrBadOp:
		return "bad-op"
	case ErrMalformed:
		return "malformed-request"
	case ErrPayloadTooLarge:
		return "payload-too-large"
	case ErrShuttingDown:
		return "shutting-down"
	case ErrOverloaded:
		return "overloaded"
	case ErrUnknownLease:
		return "unknown-lease"
	case ErrPeerUnavailable:
		return "peer-unavailable"
	default:
		return fmt.Sprintf("err-code-%d", uint8(c))
	}
}

// Codes returns every defined error code except ErrNone, for exhaustive
// tests and diagnostics.
func Codes() []ErrCode {
	out := make([]ErrCode, 0, errCodeCount-1)
	for c := ErrCode(1); c < errCodeCount; c++ {
		out = append(out, c)
	}
	return out
}

// ProtoError is the client-side form of a StatusError response.
type ProtoError struct {
	Code  ErrCode
	ReqID uint64
}

func (e *ProtoError) Error() string {
	return fmt.Sprintf("clientproto: server rejected request %d: %s", e.ReqID, e.Code)
}

// ReqError is returned by ReadRequest when the frame was well-delimited
// but its body is invalid. The stream is still in sync (the whole frame
// was consumed), so a server answers with Code in a StatusError response
// and keeps serving the connection.
type ReqError struct {
	Code  ErrCode
	ReqID uint64 // 0 when the body broke before the request id
	Cause string
}

func (e *ReqError) Error() string {
	return fmt.Sprintf("clientproto: bad request %d (%s): %s", e.ReqID, e.Code, e.Cause)
}

// MaxPayload bounds an insert payload; longer payloads are rejected with
// ErrPayloadTooLarge while the connection keeps serving.
const MaxPayload = 1 << 16

// maxFrame bounds any client protocol frame.
const maxFrame = 1 << 20

// Request is one client operation.
type Request struct {
	Op      uint8
	ReqID   uint64
	Prio    uint64 // insert only; Skeap interprets it as a 0-based index
	Payload string // insert only
	ID      uint64 // ack/nack only: the leased element id being settled
}

// Response reports one completed or rejected operation.
type Response struct {
	ReqID  uint64
	Status uint8
	Code   ErrCode // StatusError only; ErrNone otherwise
	ID     uint64  // element id (inserted, deleted, or ack/nack echo)
	Prio   uint64  // deleted element's priority
	Value  int64   // protocol serialization value of the operation
	// Deliveries counts how many times the element of a StatusElem
	// response has been handed out, this delivery included: 1 on first
	// delivery, more after nacks or expired leases.
	Deliveries uint32
}

// Err returns the typed error of a StatusError or StatusUnavailable
// response, nil otherwise. StatusUnavailable errors carry
// ErrPeerUnavailable, which clients treat as retryable.
func (r *Response) Err() error {
	if r.Status != StatusError && r.Status != StatusUnavailable {
		return nil
	}
	return &ProtoError{Code: r.Code, ReqID: r.ReqID}
}

// Retryable reports whether the response is a transient degraded-mode
// rejection worth retrying with backoff.
func (r *Response) Retryable() bool {
	return r.Status == StatusUnavailable ||
		(r.Status == StatusError && r.Code == ErrPeerUnavailable)
}

func writeFrame(w io.Writer, body []byte) error {
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(body)))
	if _, err := w.Write(lenb[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame and points fr at its body. The caller owns fr
// (a local: nothing here makes it escape, so it costs no allocation).
func readFrame(r io.Reader, fr *wire.Reader) error {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n == 0 || n > maxFrame {
		return fmt.Errorf("clientproto: implausible frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	fr.Reset(body)
	return nil
}

// WriteRequest frames and writes one request.
func WriteRequest(w io.Writer, req *Request) error {
	if len(req.Payload) > MaxPayload {
		return &ReqError{Code: ErrPayloadTooLarge, ReqID: req.ReqID,
			Cause: fmt.Sprintf("payload %d bytes, max %d", len(req.Payload), MaxPayload)}
	}
	b := wire.GetWriter()
	defer wire.PutWriter(b)
	b.U8(req.Op)
	b.U64(req.ReqID)
	switch req.Op {
	case OpInsert:
		b.U64(req.Prio)
		b.String(req.Payload)
	case OpAck, OpNack, OpLeaseScan:
		b.U64(req.ID)
	}
	return writeFrame(w, b.Bytes())
}

// ReadRequest reads one framed request. A *ReqError return means the frame
// itself was consumed and the stream is still usable; any other error is
// fatal for the connection.
func ReadRequest(r io.Reader) (*Request, error) {
	var fr wire.Reader
	if err := readFrame(r, &fr); err != nil {
		return nil, err
	}
	req := &Request{}
	req.Op = fr.U8()
	req.ReqID = fr.U64()
	if err := fr.Err(); err != nil {
		return nil, &ReqError{Code: ErrMalformed, Cause: err.Error()}
	}
	switch req.Op {
	case OpInsert:
		req.Prio = fr.U64()
		req.Payload = fr.String()
	case OpDelete:
	case OpAck, OpNack, OpLeaseScan:
		req.ID = fr.U64()
	default:
		return nil, &ReqError{Code: ErrBadOp, ReqID: req.ReqID, Cause: fmt.Sprintf("op %d", req.Op)}
	}
	if err := fr.Err(); err != nil {
		return nil, &ReqError{Code: ErrMalformed, ReqID: req.ReqID, Cause: err.Error()}
	}
	if fr.Remaining() > 0 {
		return nil, &ReqError{Code: ErrMalformed, ReqID: req.ReqID,
			Cause: fmt.Sprintf("%d trailing bytes in request", fr.Remaining())}
	}
	if len(req.Payload) > MaxPayload {
		return nil, &ReqError{Code: ErrPayloadTooLarge, ReqID: req.ReqID,
			Cause: fmt.Sprintf("payload %d bytes, max %d", len(req.Payload), MaxPayload)}
	}
	return req, nil
}

// WriteResponse frames and writes one response.
func WriteResponse(w io.Writer, resp *Response) error {
	b := wire.GetWriter()
	defer wire.PutWriter(b)
	b.U64(resp.ReqID)
	b.U8(resp.Status)
	b.U8(uint8(resp.Code))
	b.U64(resp.ID)
	b.U64(resp.Prio)
	b.I64(resp.Value)
	b.U32(resp.Deliveries)
	return writeFrame(w, b.Bytes())
}

// ReadResponse reads one framed response. StatusError responses are
// returned as values, not errors — callers route them with Response.Err.
func ReadResponse(r io.Reader) (*Response, error) {
	var fr wire.Reader
	if err := readFrame(r, &fr); err != nil {
		return nil, err
	}
	resp := &Response{}
	resp.ReqID = fr.U64()
	resp.Status = fr.U8()
	resp.Code = ErrCode(fr.U8())
	resp.ID = fr.U64()
	resp.Prio = fr.U64()
	resp.Value = fr.I64()
	resp.Deliveries = fr.U32()
	if err := fr.Err(); err != nil {
		return nil, err
	}
	if fr.Remaining() > 0 {
		return nil, fmt.Errorf("clientproto: %d trailing bytes in response", fr.Remaining())
	}
	switch resp.Status {
	case StatusInserted, StatusElem, StatusBottom, StatusAcked, StatusNacked:
		if resp.Code != ErrNone {
			return nil, fmt.Errorf("clientproto: status %d carries error code %s", resp.Status, resp.Code)
		}
		return resp, nil
	case StatusError, StatusUnavailable:
		if resp.Code == ErrNone || resp.Code >= errCodeCount {
			return nil, fmt.Errorf("clientproto: error response with invalid code %d", uint8(resp.Code))
		}
		return resp, nil
	default:
		return nil, fmt.Errorf("clientproto: unknown status %d", resp.Status)
	}
}
