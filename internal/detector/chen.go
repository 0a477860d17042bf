package detector

import (
	"fmt"

	"repro/internal/clock"
)

// Chen implements Chen et al.'s adaptive failure detector (§III, Eq. 2–3):
// the next freshness point is the estimated next arrival time plus a
// constant safety margin α. The paper sweeps α ∈ [0, 10000] (ms) to trace
// the detector's QoS curve.
type Chen struct {
	est   ArrivalEstimator
	alpha clock.Duration
	fp    clock.Time
}

// NewChen returns a Chen FD with the given window size, known sending
// interval (0 to estimate from arrivals), and safety margin α.
func NewChen(ws int, interval, alpha clock.Duration) *Chen {
	if alpha < 0 {
		alpha = 0
	}
	return &Chen{est: NewArrivalEstimator(ws, interval), alpha: alpha}
}

// Observe implements Detector.
func (c *Chen) Observe(seq uint64, send, recv clock.Time) {
	c.est.Observe(seq, recv)
	if ea, ok := c.est.Expected(); ok {
		c.fp = ea.Add(c.alpha)
	}
}

// FreshnessPoint implements Detector.
func (c *Chen) FreshnessPoint() clock.Time { return c.fp }

// Suspect implements Detector.
func (c *Chen) Suspect(now clock.Time) bool {
	return c.fp != 0 && now.After(c.fp)
}

// Ready implements Detector.
func (c *Chen) Ready() bool { return c.est.Full() }

// Name implements Detector.
func (c *Chen) Name() string { return fmt.Sprintf("Chen(α=%v)", c.alpha) }

// Alpha returns the configured safety margin.
func (c *Chen) Alpha() clock.Duration { return c.alpha }

// SetAlpha changes the safety margin. Chen FD itself never does this —
// the paper's point is precisely that its α must be hand-picked — but the
// general self-tuning method of §IV-A can drive any timeout-based FD, and
// core.SelfTuner uses this hook to retrofit Chen with feedback.
func (c *Chen) SetAlpha(alpha clock.Duration) {
	if alpha < 0 {
		alpha = 0
	}
	c.alpha = alpha
	if ea, ok := c.est.Expected(); ok {
		c.fp = ea.Add(c.alpha)
	}
}

// Reset implements Detector.
func (c *Chen) Reset() {
	c.est.Reset()
	c.fp = 0
}
