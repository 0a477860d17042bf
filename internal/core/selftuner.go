package core

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/detector"
)

// Tunable is a failure detector whose effective safety margin can be
// adjusted externally. It is the hook through which the *general*
// self-tuning method of §IV-A ("This method is general, and can be
// applied to the other adaptive timeout-based FD schemes") retrofits
// feedback onto detectors that were designed with hand-picked parameters.
type Tunable interface {
	detector.Detector
	// TuningParam returns the current value of the tuned parameter.
	TuningParam() clock.Duration
	// SetTuningParam overrides the tuned parameter.
	SetTuningParam(clock.Duration)
}

// TunableChen adapts detector.Chen: the tuned parameter is its safety
// margin α.
type TunableChen struct{ *detector.Chen }

// TuningParam implements Tunable.
func (t TunableChen) TuningParam() clock.Duration { return t.Alpha() }

// SetTuningParam implements Tunable.
func (t TunableChen) SetTuningParam(d clock.Duration) { t.SetAlpha(d) }

// TunableFixed adapts detector.Fixed: the tuned parameter is the timeout.
type TunableFixed struct{ *detector.Fixed }

// TuningParam implements Tunable.
func (t TunableFixed) TuningParam() clock.Duration { return t.Timeout() }

// SetTuningParam implements Tunable.
func (t TunableFixed) SetTuningParam(d clock.Duration) { t.SetTimeout(d) }

// SelfTuner wraps any Tunable detector with the feedback architecture of
// Fig. 4: it measures the wrapped detector's output QoS per slot and
// moves its tuning parameter by ±β·α per Algorithm 1. SFD hard-wires the
// same loop around Chen's estimator; SelfTuner demonstrates the method's
// generality.
type SelfTuner struct {
	inner detector.Detector
	tun   Tunable

	alpha   clock.Duration
	beta    float64
	targets Targets
	slotHB  int
	minP    clock.Duration
	maxP    clock.Duration
	halt    bool

	slot      slotEvaluator
	slotIndex int
	slotCount int
	state     State
	history   adjustLog
}

// TunerOptions configures a SelfTuner.
type TunerOptions struct {
	Alpha            clock.Duration // adjustment scale α (default 100 ms)
	Beta             float64        // adjusting rate β ∈ (0,1) (default 0.5)
	Targets          Targets
	SlotHeartbeats   int            // default 500
	MinParam         clock.Duration // clamp (default 0)
	MaxParam         clock.Duration // clamp (default 10 s)
	HaltOnInfeasible bool
}

// NewSelfTuner wraps d with a feedback loop driving its tuning parameter
// toward the targets.
func NewSelfTuner(d Tunable, opts TunerOptions) *SelfTuner {
	if opts.Alpha <= 0 {
		opts.Alpha = 100 * clock.Millisecond
	}
	if opts.Beta <= 0 || opts.Beta >= 1 {
		opts.Beta = 0.5
	}
	if opts.SlotHeartbeats <= 0 {
		opts.SlotHeartbeats = 500
	}
	if opts.MaxParam <= 0 {
		opts.MaxParam = 10 * clock.Second
	}
	return &SelfTuner{
		inner: d, tun: d,
		alpha: opts.Alpha, beta: opts.Beta, targets: opts.Targets,
		slotHB: opts.SlotHeartbeats, minP: opts.MinParam, maxP: opts.MaxParam,
		halt: opts.HaltOnInfeasible,
	}
}

// Observe implements detector.Detector.
func (st *SelfTuner) Observe(seq uint64, send, recv clock.Time) {
	if fp := st.inner.FreshnessPoint(); fp != 0 && recv.After(fp) {
		st.slot.addMistake(fp, recv)
	}
	st.inner.Observe(seq, send, recv)
	if !st.slot.started {
		st.slot.begin(recv)
	}
	if fp := st.inner.FreshnessPoint(); fp != 0 {
		st.slot.addTD(fp.Sub(send))
	}
	if st.state == StateWarmup && st.inner.Ready() {
		st.state = StateTuning
	}
	st.slotCount++
	if st.slotCount >= st.slotHB {
		st.closeSlot(recv)
	}
}

func (st *SelfTuner) closeSlot(now clock.Time) {
	measured, ok := st.slot.measure(now)
	st.slotCount = 0
	st.slotIndex++
	defer st.slot.begin(now)
	if !ok || st.state == StateWarmup || !st.targets.Valid() {
		return
	}
	if st.state == StateInfeasible && st.halt {
		return
	}
	v := Decide(measured, st.targets)
	p := st.tun.TuningParam() + clock.Duration(Sat(v, st.beta)*float64(st.alpha))
	if p < st.minP {
		p = st.minP
	}
	if p > st.maxP {
		p = st.maxP
	}
	st.tun.SetTuningParam(p)

	switch v {
	case VerdictStable:
		st.state = StateStable
	case VerdictInfeasible:
		st.state = StateInfeasible
	default:
		st.state = StateTuning
	}
	st.history.add(Adjustment{
		Slot: st.slotIndex, At: now, Measured: measured, Verdict: v, Margin: p,
	}, defaultHistoryCap)
}

// FreshnessPoint implements detector.Detector.
func (st *SelfTuner) FreshnessPoint() clock.Time { return st.inner.FreshnessPoint() }

// Suspect implements detector.Detector.
func (st *SelfTuner) Suspect(now clock.Time) bool { return st.inner.Suspect(now) }

// Ready implements detector.Detector.
func (st *SelfTuner) Ready() bool { return st.inner.Ready() }

// Name implements detector.Detector.
func (st *SelfTuner) Name() string {
	return fmt.Sprintf("SelfTuned[%s]", st.inner.Name())
}

// Reset implements detector.Detector.
func (st *SelfTuner) Reset() {
	st.inner.Reset()
	st.slot = slotEvaluator{}
	st.slotIndex, st.slotCount = 0, 0
	st.state = StateWarmup
	st.history = adjustLog{}
}

// State returns the tuning state.
func (st *SelfTuner) State() State { return st.state }

// History returns the last 16 evaluated slots, oldest first.
func (st *SelfTuner) History() []Adjustment { return st.history.entries() }
