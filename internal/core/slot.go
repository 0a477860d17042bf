package core

import "repro/internal/clock"

// slotEvaluator measures the output QoS of a running detector over one
// feedback time slot ("in a specific time slot, we adjust the parameters
// of SFD only one time, based on feedback information", §IV-A).
//
// Because no real crash happens while the monitored process is alive, TD
// is measured as the worst-case detection latency the current parameters
// imply: if the sender crashed immediately after sending heartbeat k, the
// monitor would suspect at the freshness point computed for k+1, so
// TD_k = FP_{k+1} − σ_k (σ_k = the send timestamp carried in heartbeat
// k). Mistakes are observed directly: a heartbeat arriving after the
// freshness point expired means the suspicion that started at FP was
// wrong, with duration (arrival − FP).
type slotEvaluator struct {
	tdSum      float64 // ns
	tdCount    int64
	mistakes   int64
	mistakeDur clock.Duration
	start      clock.Time
	started    bool
}

// begin opens a new slot at instant t.
func (s *slotEvaluator) begin(t clock.Time) {
	*s = slotEvaluator{start: t, started: true}
}

// addTD records one worst-case detection-time sample.
func (s *slotEvaluator) addTD(td clock.Duration) {
	if td < 0 {
		td = 0
	}
	s.tdSum += float64(td)
	s.tdCount++
}

// addMistake records one wrong suspicion lasting [from, to). Only the
// portion inside the current slot is charged: a suspicion that began
// before the slot opened was already the previous slot's mistake up to
// the boundary, and charging its full duration here could exceed the
// slot span and floor QAP at 0.
func (s *slotEvaluator) addMistake(from, to clock.Time) {
	if s.started && from.Before(s.start) {
		from = s.start
	}
	dur := to.Sub(from)
	if dur < 0 {
		dur = 0
	}
	s.mistakes++
	s.mistakeDur += dur
}

// measure closes the slot at instant end and returns the slot QoS.
// ok is false when the slot carries no information (no TD samples or a
// zero-length span).
func (s *slotEvaluator) measure(end clock.Time) (QoS, bool) {
	span := end.Sub(s.start)
	if !s.started || s.tdCount == 0 || span <= 0 {
		return QoS{}, false
	}
	q := QoS{
		TD: clock.Duration(s.tdSum / float64(s.tdCount)),
		MR: float64(s.mistakes) / span.Seconds(),
	}
	// Overlapping mistakes can still overrun the span; clamp so QAP
	// stays in [0, 1] instead of going negative.
	md := s.mistakeDur
	if md > span {
		md = span
	}
	q.QAP = 1 - float64(md)/float64(span)
	return q, true
}
