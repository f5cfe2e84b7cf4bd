// JSONL trace exporter and validator. The trace schema ("dpq-trace/1") is
// replay-stable: the engines are deterministic per seed and every field is
// formatted canonically (integers in base 10, times via the shortest
// round-tripping float form), so two same-seed runs — including faulty
// ones replayed from a FaultTrace — produce byte-identical traces.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"dpq/internal/sim"
)

// TraceSchema identifies the trace format; the first line of every trace
// is a header object carrying it.
const TraceSchema = "dpq-trace/1"

// TraceWriter streams deliveries as JSONL: one header line, then one
// object per delivery with the fixed field order
// seq, round, time, from, to, kind, bits, group.
type TraceWriter struct {
	w   *bufio.Writer
	seq int64
	err error
}

// NewTraceWriter writes the schema header and returns the writer. Callers
// must Flush (and check its error) when the run ends.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{w: bufio.NewWriterSize(w, 1<<16)}
	_, tw.err = fmt.Fprintf(tw.w, "{\"schema\":%q}\n", TraceSchema)
	return tw
}

// Observer returns the engine observer feeding this trace. Nil-safe.
func (t *TraceWriter) Observer() func(sim.Delivery) {
	if t == nil {
		return nil
	}
	return t.Write
}

// Write appends one delivery line.
func (t *TraceWriter) Write(d sim.Delivery) {
	if t.err != nil {
		return
	}
	t.seq++
	// Hand-rolled formatting keeps the field order fixed and avoids the
	// reflection cost of encoding/json on the per-delivery hot path.
	var buf [64]byte
	b := buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, t.seq, 10)
	b = append(b, `,"round":`...)
	b = strconv.AppendInt(b, int64(d.Round), 10)
	b = append(b, `,"time":`...)
	b = strconv.AppendFloat(b, d.Time, 'g', -1, 64)
	b = append(b, `,"from":`...)
	b = strconv.AppendInt(b, int64(d.From), 10)
	b = append(b, `,"to":`...)
	b = strconv.AppendInt(b, int64(d.To), 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, sim.KindOf(d.Msg))
	b = append(b, `,"bits":`...)
	b = strconv.AppendInt(b, int64(d.Bits), 10)
	b = append(b, `,"group":`...)
	b = strconv.AppendInt(b, int64(d.Group), 10)
	b = append(b, "}\n"...)
	_, t.err = t.w.Write(b)
}

// Lines returns how many delivery lines were written so far.
func (t *TraceWriter) Lines() int64 { return t.seq }

// Flush drains the buffer and reports the first error encountered while
// writing.
func (t *TraceWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// TraceSummary is what ValidateTrace learns about a well-formed trace.
type TraceSummary struct {
	Deliveries int64
	TotalBits  int64
	Kinds      map[string]int64 // per-kind delivery counts
}

// traceLine mirrors one delivery line for decoding.
type traceLine struct {
	Seq   *int64   `json:"seq"`
	Round *int64   `json:"round"`
	Time  *float64 `json:"time"`
	From  *int64   `json:"from"`
	To    *int64   `json:"to"`
	Kind  *string  `json:"kind"`
	Bits  *int64   `json:"bits"`
	Group *int64   `json:"group"`
}

// TraceOptions configures ValidateTraceOpts.
type TraceOptions struct {
	// PerNodeRounds relaxes the round-monotonicity check from global to
	// per sending node. The round-synchronous simulators emit globally
	// nondecreasing rounds, but the network runtime stamps each delivery
	// with the sender's local activation tick: ticks of different
	// processes interleave freely, while deliveries from one sender stay
	// ordered (TCP is FIFO per peer and local ticks only grow).
	PerNodeRounds bool
}

// ValidateTrace checks a JSONL trace against the dpq-trace/1 schema: a
// header line with the schema tag, then delivery objects with exactly the
// eight required fields, seq contiguous from 1 and rounds nondecreasing.
// It returns a summary of the validated trace.
func ValidateTrace(r io.Reader) (*TraceSummary, error) {
	return ValidateTraceOpts(r, TraceOptions{})
}

// ValidateTraceOpts is ValidateTrace with explicit options.
func ValidateTraceOpts(r io.Reader, opt TraceOptions) (*TraceSummary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("obs: empty trace (missing schema header)")
	}
	var hdr struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("obs: bad trace header: %v", err)
	}
	if hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("obs: trace schema %q, want %q", hdr.Schema, TraceSchema)
	}
	sum := &TraceSummary{Kinds: map[string]int64{}}
	lastRound := int64(-1 << 62)
	lastByFrom := map[int64]int64{}
	for lineNo := int64(2); sc.Scan(); lineNo++ {
		var l traceLine
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %v", lineNo, err)
		}
		if l.Seq == nil || l.Round == nil || l.Time == nil || l.From == nil ||
			l.To == nil || l.Kind == nil || l.Bits == nil || l.Group == nil {
			return nil, fmt.Errorf("obs: trace line %d: missing required field", lineNo)
		}
		if *l.Seq != sum.Deliveries+1 {
			return nil, fmt.Errorf("obs: trace line %d: seq %d, want %d", lineNo, *l.Seq, sum.Deliveries+1)
		}
		if *l.Kind == "" {
			return nil, fmt.Errorf("obs: trace line %d: empty kind", lineNo)
		}
		if *l.Bits < 0 {
			return nil, fmt.Errorf("obs: trace line %d: negative bits", lineNo)
		}
		if opt.PerNodeRounds {
			if last, ok := lastByFrom[*l.From]; ok && *l.Round < last {
				return nil, fmt.Errorf("obs: trace line %d: node %d round %d after round %d",
					lineNo, *l.From, *l.Round, last)
			}
			lastByFrom[*l.From] = *l.Round
		} else {
			if *l.Round < lastRound {
				return nil, fmt.Errorf("obs: trace line %d: round %d after round %d", lineNo, *l.Round, lastRound)
			}
			lastRound = *l.Round
		}
		sum.Deliveries++
		sum.TotalBits += *l.Bits
		sum.Kinds[*l.Kind]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sum, nil
}
