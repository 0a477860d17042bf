package detector

import (
	"fmt"
	"math"

	"repro/internal/clock"
)

// BertierParams are the tuning constants of Bertier's estimator
// (Eq. 4–8). The paper uses the authors' published values β=1, φ=4,
// γ=0.1 ("Typical values of β, φ and γ are 1, 4 and 0.1").
type BertierParams struct {
	Beta  float64 // weight of the smoothed error ("delay") term
	Phi   float64 // weight of the error-magnitude ("var") term
	Gamma float64 // EWMA gain for both estimators
}

// DefaultBertierParams returns β=1, φ=4, γ=0.1.
func DefaultBertierParams() BertierParams {
	return BertierParams{Beta: 1, Phi: 4, Gamma: 0.1}
}

// Bertier implements Bertier et al.'s adaptive failure detector (§III):
// Chen's expected-arrival estimation combined with a Jacobson-RTT-style
// dynamic safety margin,
//
//	error_k   = A_k − EA_k − delay_k
//	delay_k+1 = delay_k + γ·error_k
//	var_k+1   = var_k + γ·(|error_k| − var_k)
//	α_k+1     = β·delay_k+1 + φ·var_k+1
//	τ_k+1     = EA_k+1 + α_k+1
//
// It has no free parameter to sweep, which is why it contributes a single
// (aggressive) point to the paper's QoS figures.
type Bertier struct {
	params BertierParams
	est    ArrivalEstimator

	delay float64 // smoothed estimation error (ns)
	vr    float64 // smoothed error magnitude (ns)
	fp    clock.Time
}

// NewBertier returns a Bertier FD with the given window size and known
// sending interval (0 to estimate).
func NewBertier(ws int, interval clock.Duration, p BertierParams) *Bertier {
	if p == (BertierParams{}) {
		p = DefaultBertierParams()
	}
	return &Bertier{params: p, est: NewArrivalEstimator(ws, interval)}
}

// Observe implements Detector.
func (b *Bertier) Observe(seq uint64, send, recv clock.Time) {
	// EA_k — prediction made before this arrival.
	predicted, hadPrediction := b.est.Expected()

	b.est.Observe(seq, recv)

	if hadPrediction {
		errK := float64(recv) - float64(predicted) - b.delay
		b.delay += b.params.Gamma * errK
		b.vr += b.params.Gamma * (math.Abs(errK) - b.vr)
	}
	if ea, ok := b.est.Expected(); ok {
		alpha := b.params.Beta*b.delay + b.params.Phi*b.vr
		if alpha < 0 {
			alpha = 0
		}
		b.fp = ea.Add(clock.Duration(alpha))
	}
}

// FreshnessPoint implements Detector.
func (b *Bertier) FreshnessPoint() clock.Time { return b.fp }

// Suspect implements Detector.
func (b *Bertier) Suspect(now clock.Time) bool {
	return b.fp != 0 && now.After(b.fp)
}

// Ready implements Detector.
func (b *Bertier) Ready() bool { return b.est.Full() }

// Name implements Detector.
func (b *Bertier) Name() string {
	return fmt.Sprintf("Bertier(β=%g,φ=%g,γ=%g)", b.params.Beta, b.params.Phi, b.params.Gamma)
}

// Margin returns the current dynamic safety margin α in nanoseconds.
func (b *Bertier) Margin() clock.Duration {
	alpha := b.params.Beta*b.delay + b.params.Phi*b.vr
	if alpha < 0 {
		alpha = 0
	}
	return clock.Duration(alpha)
}

// Reset implements Detector.
func (b *Bertier) Reset() {
	b.est.Reset()
	b.delay, b.vr, b.fp = 0, 0, 0
}
