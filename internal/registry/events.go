package registry

import (
	"fmt"

	"repro/internal/clock"
)

// EventType discriminates failure-bus notifications.
type EventType uint8

const (
	// EventSuspect: a stream crossed from trusted to suspected (its
	// freshness point expired, or it exceeded the silence safety net).
	EventSuspect EventType = iota + 1
	// EventTrust: a suspected (or offline) stream resumed heartbeating —
	// the suspicion was a mistake, or a wrongly-declared-offline server
	// came back (the paper's model: a crashed process never recovers, so
	// a recovery proves the suspicion wrong).
	EventTrust
	// EventOffline: a stream stayed suspected past the offline grace
	// period and is now treated as crashed.
	EventOffline
	// EventEvicted: an offline stream outlived the eviction grace period
	// and was removed from the registry (bounded-table guarantee).
	EventEvicted
	// EventCannotSatisfy: the stream's self-tuning detector reports that
	// the requested QoS targets are infeasible on this network path —
	// Algorithm 1's "this SFD can not satisfy the QoS" response, pushed
	// instead of polled.
	EventCannotSatisfy
	// EventGlobalSuspect: the gossip layer's quorum rule found enough
	// monitors concurring that the peer is suspected — a fleet-wide
	// suspicion, not just this monitor's local one.
	EventGlobalSuspect
	// EventGlobalOffline: ≥K monitors (weighted by their recent accuracy)
	// independently declared the peer offline at its latest incarnation —
	// the corroborated verdict safe to act on.
	EventGlobalOffline
	// EventGlobalTrust: a previously gossip-suspected peer is trusted
	// again fleet-wide — the quorum dissolved, or a bumped incarnation
	// refuted the old suspicion.
	EventGlobalTrust
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case EventSuspect:
		return "suspect"
	case EventTrust:
		return "trust"
	case EventOffline:
		return "offline"
	case EventEvicted:
		return "evicted"
	case EventCannotSatisfy:
		return "cannot-satisfy"
	case EventGlobalSuspect:
		return "global-suspect"
	case EventGlobalOffline:
		return "global-offline"
	case EventGlobalTrust:
		return "global-trust"
	default:
		return fmt.Sprintf("EventType(%d)", uint8(t))
	}
}

// Event is one failure-detection transition published on the bus. It is
// 56 B: every subscription buffers up to its capacity of them, and every
// send copies one, so the two strings that only gossip verdicts and
// EventCannotSatisfy set live behind one pointer (nil on every other
// event) and are read with Source and Detail.
type Event struct {
	Type EventType
	Peer string
	// At is the instant the transition was detected (wheel fire time or
	// heartbeat arrival time).
	At clock.Time
	// Suspicion is the accrual suspicion level at the transition, when
	// the stream's detector exposes one (0 otherwise).
	Suspicion float64
	// Incarnation is the peer incarnation the transition refers to;
	// Global* verdicts apply only to this incarnation.
	Incarnation uint64
	note        *eventNote
}

// eventNote is an Event's rarely set text; see Source and Detail.
type eventNote struct {
	source, detail string
}

// WithNote returns a copy of e carrying source and detail (both empty
// clears them).
func (e Event) WithNote(source, detail string) Event {
	e.note = nil
	if source != "" || detail != "" {
		e.note = &eventNote{source: source, detail: detail}
	}
	return e
}

// Source identifies the monitor that produced a Global* verdict (empty
// for this monitor's own local transitions).
func (e Event) Source() string {
	if e.note == nil {
		return ""
	}
	return e.note.source
}

// Detail carries auxiliary text, e.g. the self-tuner's infeasibility
// response for EventCannotSatisfy or the quorum tally behind a Global*
// verdict.
func (e Event) Detail() string {
	if e.note == nil {
		return ""
	}
	return e.note.detail
}

// String renders the event for logs.
func (e Event) String() string {
	if d := e.Detail(); d != "" {
		return fmt.Sprintf("%s %s at %v: %s", e.Peer, e.Type, e.At, d)
	}
	return fmt.Sprintf("%s %s at %v (suspicion %.3f)", e.Peer, e.Type, e.At, e.Suspicion)
}
