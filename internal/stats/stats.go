// Package stats provides the streaming and batch statistics used by the
// failure detectors and the QoS evaluation harness: numerically stable
// moment accumulators (Welford), exponentially weighted moving averages
// (the building block of Bertier's Jacobson-style estimator), normal
// distribution functions (the heart of the φ accrual detector), fixed-bin
// histograms, and simple linear regression (used for clock-drift
// estimation in trace analysis).
package stats

import (
	"errors"
	"math"
)

// ErrNoSamples is returned by batch helpers when given an empty slice.
var ErrNoSamples = errors.New("stats: no samples")

// Welford accumulates count, mean and variance in a single pass using
// Welford's numerically stable recurrence.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 for fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVariance returns the Bessel-corrected variance.
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

// Merge folds another accumulator into w (Chan et al. parallel variant),
// so partial statistics computed by concurrent workers can be combined.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.mean += delta * float64(o.n) / float64(n)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoSamples
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean(), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoSamples
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.StdDev(), nil
}

// EWMA is an exponentially weighted moving average with gain g:
// v ← v + g·(x − v). Bertier's delay/var estimators (Eq. 5–6 of the
// paper) are two EWMAs with γ = 0.1.
type EWMA struct {
	gain  float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given gain in (0,1].
func NewEWMA(gain float64) *EWMA {
	if gain <= 0 || gain > 1 {
		panic("stats: EWMA gain must be in (0,1]")
	}
	return &EWMA{gain: gain}
}

// Add folds in an observation. The first observation initializes the
// average directly.
func (e *EWMA) Add(x float64) {
	if !e.init {
		e.value, e.init = x, true
		return
	}
	e.value += e.gain * (x - e.value)
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation was added.
func (e *EWMA) Initialized() bool { return e.init }

// Set forces the current value (used to seed estimators).
func (e *EWMA) Set(x float64) { e.value, e.init = x, true }
