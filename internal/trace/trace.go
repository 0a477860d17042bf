// Package trace defines the heartbeat trace model the whole evaluation
// pipeline runs on: a Record per heartbeat (sequence number, send time,
// receive time or loss flag), an in-memory Trace, a streaming interface
// so multi-million-heartbeat runs need not be materialized, synthetic
// generators that substitute for the paper's real WAN trace files (see
// DESIGN.md §2), a statistics analyzer that regenerates Table II, and
// binary/CSV codecs.
//
// The paper's own evaluation is replay-based: "the logged arrival time is
// used to replay the execution for each FD scheme ... all the FDs are
// compared in the same experimental condition" (§V). This package is that
// common experimental condition.
package trace

import (
	"errors"
	"fmt"

	"repro/internal/clock"
)

// Record is a single heartbeat observation as logged by the monitor.
// SendTime is the sender's timestamp carried inside the heartbeat;
// RecvTime is the receiver's local arrival time. Per the paper (and Chen
// §V), clock drift between the two is assumed negligible over the run.
type Record struct {
	Seq      uint64     // sequence number, starting at 0, no gaps on the send side
	SendTime clock.Time // sender clock
	RecvTime clock.Time // receiver clock; meaningless when Lost
	Lost     bool       // heartbeat never arrived
}

// Delay returns the one-way transmission delay d_i of the heartbeat.
// It is only meaningful when the record is not Lost.
func (r Record) Delay() clock.Duration { return r.RecvTime.Sub(r.SendTime) }

// Meta describes a trace: where it came from and its target parameters.
// Table I of the paper is a listing of exactly this metadata for the six
// PlanetLab runs.
type Meta struct {
	Name         string
	Sender       string // location, e.g. "USA"
	SenderHost   string // hostname, e.g. "planet1.scs.stanford.edu"
	Receiver     string
	ReceiverHost string
	Interval     clock.Duration // target heartbeat interval Δt
	RTT          clock.Duration // average round-trip time from the ping probe
}

// Trace is a fully materialized heartbeat trace.
type Trace struct {
	Meta    Meta
	Records []Record
}

// Stream yields trace records in sequence order. Generators implement it
// directly so full-paper-scale runs (≈7M heartbeats) can be replayed
// without holding the trace in memory.
type Stream interface {
	// Next returns the next record; ok is false at end of stream.
	Next() (rec Record, ok bool)
}

// ErrShortTrace is returned by consumers that need more records than the
// stream holds (e.g. filling a detection window before measuring).
var ErrShortTrace = errors.New("trace: not enough records")

// Cursor adapts a materialized Trace to the Stream interface.
type Cursor struct {
	t   *Trace
	pos int
}

// NewCursor returns a Stream over the trace.
func NewCursor(t *Trace) *Cursor { return &Cursor{t: t} }

// Next implements Stream.
func (c *Cursor) Next() (Record, bool) {
	if c.pos >= len(c.t.Records) {
		return Record{}, false
	}
	r := c.t.Records[c.pos]
	c.pos++
	return r, true
}

// Reset rewinds the cursor to the beginning.
func (c *Cursor) Reset() { c.pos = 0 }

// Stream returns a fresh Stream over the trace.
func (t *Trace) Stream() Stream { return NewCursor(t) }

// Len returns the number of records (sent heartbeats).
func (t *Trace) Len() int { return len(t.Records) }

// Collect materializes a stream into a Trace with the given metadata.
// A *Generator's Records are allocated once, sized to the records it has left.
func Collect(meta Meta, s Stream) *Trace {
	t := &Trace{Meta: meta}
	if g, ok := s.(*Generator); ok {
		if n := g.p.Count - int(g.seq); n > 0 {
			t.Records = make([]Record, 0, n)
		}
	}
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		t.Records = append(t.Records, r)
	}
	return t
}

// Validate checks the structural invariants every well-formed trace must
// satisfy: sequence numbers strictly increasing, send times nondecreasing,
// and every received heartbeat arriving no earlier than it was sent.
func (t *Trace) Validate() error {
	var prev Record
	for i, r := range t.Records {
		if i > 0 {
			if r.Seq <= prev.Seq {
				return fmt.Errorf("trace: record %d: seq %d not increasing (prev %d)", i, r.Seq, prev.Seq)
			}
			if r.SendTime < prev.SendTime {
				return fmt.Errorf("trace: record %d: send time moved backwards", i)
			}
		}
		if !r.Lost && r.RecvTime < r.SendTime {
			return fmt.Errorf("trace: record %d: received before sent", i)
		}
		prev = r
	}
	return nil
}

// Limit wraps a stream, truncating it after n records. It is how the
// bench harness scales paper-sized workloads down for -short runs.
type Limit struct {
	S Stream
	N int

	emitted int
}

// Next implements Stream.
func (l *Limit) Next() (Record, bool) {
	if l.emitted >= l.N {
		return Record{}, false
	}
	r, ok := l.S.Next()
	if !ok {
		return Record{}, false
	}
	l.emitted++
	return r, true
}
