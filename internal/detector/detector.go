// Package detector implements the adaptive failure detectors the paper
// evaluates SFD against (§III): Chen FD, Bertier FD, and the φ accrual
// FD, plus a naive fixed-timeout baseline. All of them consume heartbeat
// arrivals and expose a *freshness point* — the absolute instant at which
// the monitor starts suspecting the sender if no further heartbeat
// arrives (Fig. 2 of the paper).
//
// The SFD itself lives in internal/core; it composes the Chen-style
// arrival estimator from this package with a feedback-tuned safety
// margin.
package detector

import (
	"repro/internal/clock"
	"repro/internal/window"
)

// DefaultWindowSize is the sliding-window size used throughout the
// paper's experiments ("All the experiments for the four FDs use the same
// fixed window size (WS = 1,000)").
const DefaultWindowSize = 1000

// Detector is a heartbeat-based failure detector. Implementations are
// not safe for concurrent use; wrap them (as internal/cluster does) when
// sharing across goroutines.
type Detector interface {
	// Observe records the arrival of heartbeat seq, stamped send on the
	// sender's clock and recv on the monitor's clock. Sequence numbers
	// may skip (lost heartbeats) but must be presented in increasing
	// order; stale duplicates must be dropped by the caller.
	Observe(seq uint64, send, recv clock.Time)
	// FreshnessPoint returns the absolute time τ until which the sender
	// is trusted based on the arrivals observed so far. Before any
	// arrival it returns 0.
	FreshnessPoint() clock.Time
	// Suspect reports whether the sender is suspected at instant now.
	Suspect(now clock.Time) bool
	// Ready reports whether the warm-up period is over (the paper only
	// measures "after the sliding window is full").
	Ready() bool
	// Name identifies the scheme (for tables and curve labels).
	Name() string
	// Reset returns the detector to its initial state.
	Reset()
}

// Accrual is a detector that additionally outputs a suspicion level on a
// continuous scale (the paper's footnote 3: "an FD service outputs a
// suspicion level on a continuous scale rather than information of a
// boolean nature").
type Accrual interface {
	Detector
	// SuspicionLevel returns the current suspicion value at instant now;
	// larger means more suspicious. The φ FD returns φ, SFD returns a
	// margin-normalized overshoot.
	SuspicionLevel(now clock.Time) float64
}

// ArrivalEstimator is Chen's windowed expected-arrival-time estimator
// (Eq. 2): EA_{k+1} = (1/n)·Σ_{i∈W}(A_i − Δt·i) + (k+1)·Δt, where W holds
// the most recent n received heartbeats (i = sequence number, A_i =
// arrival time). When the configured sending interval Δt is zero, the
// estimator follows §IV-C of the paper and uses the average inter-arrival
// time observed in the window.
//
// The window is a packed window.Arrivals held inline, and Σ A_i and Σ i
// are its exact int64 sums: they stay within int64 for window sizes up to
// ~9000 on month-long runs. A detector holds its estimator by value.
type ArrivalEstimator struct {
	interval clock.Duration // configured Δt; 0 ⇒ estimate from window
	win      window.Arrivals
}

// NewArrivalEstimator returns an estimator over a window of ws received
// heartbeats. interval is the known sending interval Δt, or 0 to estimate
// it from the window.
func NewArrivalEstimator(ws int, interval clock.Duration) ArrivalEstimator {
	if ws <= 0 {
		ws = DefaultWindowSize
	}
	return ArrivalEstimator{interval: interval, win: window.NewArrivals(ws)}
}

// Observe records an arrival.
func (e *ArrivalEstimator) Observe(seq uint64, recv clock.Time) {
	e.win.Push(ArrivalSample{Seq: seq, Recv: recv})
}

// Interval returns the Δt in effect: the configured one, or the window
// estimate (mean arrival spacing per sequence step, which remains correct
// across loss gaps because it divides by sequence distance, not count).
func (e *ArrivalEstimator) Interval() clock.Duration {
	if e.interval > 0 {
		return e.interval
	}
	if e.win.Len() < 2 {
		return 0
	}
	oldest, _ := e.win.Oldest()
	newest, _ := e.win.Newest()
	seqSpan := newest.Seq - oldest.Seq
	if seqSpan == 0 {
		return 0
	}
	return newest.Recv.Sub(oldest.Recv) / clock.Duration(seqSpan)
}

// Expected returns EA_{k+1}: the estimated arrival time of the next
// heartbeat (sequence lastSeq+1). ok is false until at least one arrival
// (and, with estimated Δt, two) has been observed.
func (e *ArrivalEstimator) Expected() (clock.Time, bool) {
	last, ok := e.win.Newest()
	if !ok {
		return 0, false
	}
	dt := e.Interval()
	if dt <= 0 {
		return 0, false
	}
	n := e.win.Len()
	sumSeq, sumRecv := e.win.Sums()
	// (1/n)·Σ(A_i − Δt·i) + (k+1)·Δt
	meanShift := float64(sumRecv)/float64(n) - float64(dt)*float64(sumSeq)/float64(n)
	ea := meanShift + float64(dt)*float64(last.Seq+1)
	return clock.Time(ea), true
}

// Last returns the sequence number and arrival time of the most recent
// heartbeat.
func (e *ArrivalEstimator) Last() (seq uint64, recv clock.Time, ok bool) {
	last, ok := e.win.Newest()
	return last.Seq, last.Recv, ok
}

// ArrivalSample is one (sequence, arrival) pair of the estimation window
// in exportable form — the unit of detector state persistence.
type ArrivalSample = window.ArrivalSample

// Export copies the estimation window, oldest first, appending to dst
// (which may be nil). Together with Import it lets a warm-restarting
// monitor carry a stream's learned arrival distribution across process
// lives instead of re-entering warmup.
func (e *ArrivalEstimator) Export(dst []ArrivalSample) []ArrivalSample {
	return e.win.Export(dst)
}

// Import resets the estimator and replays the samples (which must be in
// strictly increasing sequence order) through Observe, rebuilding the
// running sums. Samples beyond the window capacity keep only the newest
// Cap() entries, matching what a live estimator would hold.
func (e *ArrivalEstimator) Import(samples []ArrivalSample) {
	e.Reset()
	if n := len(samples) - e.win.Cap(); n > 0 {
		samples = samples[n:]
	}
	for _, s := range samples {
		e.Observe(s.Seq, s.Recv)
	}
}

// Full reports whether the estimation window is full.
func (e *ArrivalEstimator) Full() bool { return e.win.Full() }

// Len returns the number of arrivals currently in the window.
func (e *ArrivalEstimator) Len() int { return e.win.Len() }

// Reset clears all state.
func (e *ArrivalEstimator) Reset() { e.win.Reset() }
