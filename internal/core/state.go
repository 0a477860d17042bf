package core

import (
	"errors"
	"fmt"

	"repro/internal/clock"
	"repro/internal/detector"
)

// SFDState is the serializable form of an SFD's mutable state — the
// estimation window, the tuned safety margin, and the feedback-loop
// position. It deliberately excludes Config: a restarting monitor
// rebuilds detectors through its factory, so the configuration comes
// from code (possibly newer code) while the learned state comes from the
// snapshot. All times are in the exporting process's clock domain; the
// persistence layer rebases them before import.
type SFDState struct {
	Margin clock.Duration
	FP     clock.Time
	State  State

	SlotIndex int

	LastSeq   uint64
	LastSend  clock.Time
	LastDelay clock.Duration
	HaveSeq   bool
	GapAvg    float64
	GapAvgOK  bool

	StepScale float64
	LastDir   int8

	Window []detector.ArrivalSample
}

// ErrBadState reports an SFDState that fails validation on import.
var ErrBadState = errors.New("core: invalid detector state")

// ExportState captures the detector's mutable state for persistence.
// The adjustment history is not exported: it is an observability log,
// not an input to the feedback loop.
func (s *SFD) ExportState() SFDState {
	return SFDState{
		Margin:    s.margin,
		FP:        s.fp,
		State:     s.state,
		SlotIndex: s.slotIndex,
		LastSeq:   s.lastSeq,
		LastSend:  s.lastSend,
		LastDelay: s.lastDelay,
		HaveSeq:   s.haveSeq,
		GapAvg:    s.gapAvg.Value(),
		GapAvgOK:  s.gapAvg.Initialized(),
		StepScale: s.stepScale,
		LastDir:   s.lastDir,
		Window:    s.est.Export(nil),
	}
}

// ImportState replaces the detector's mutable state with st, validating
// it first: a snapshot that fails validation must leave the detector
// cold rather than half-restored. The estimation window is replayed
// through the estimator, so windows larger than the configured size keep
// the newest samples and the running sums are rebuilt from scratch.
func (s *SFD) ImportState(st SFDState) error {
	if st.State < StateWarmup || st.State > StateInfeasible {
		return fmt.Errorf("%w: state %d out of range", ErrBadState, int(st.State))
	}
	if st.StepScale != 0 && (st.StepScale < 1.0/16 || st.StepScale > 1) {
		return fmt.Errorf("%w: step scale %g out of [1/16, 1]", ErrBadState, st.StepScale)
	}
	for i := 1; i < len(st.Window); i++ {
		if st.Window[i].Seq <= st.Window[i-1].Seq {
			return fmt.Errorf("%w: window sequence not increasing at %d", ErrBadState, i)
		}
	}
	if st.HaveSeq && len(st.Window) > 0 && st.LastSeq < st.Window[len(st.Window)-1].Seq {
		return fmt.Errorf("%w: last seq %d behind window head", ErrBadState, st.LastSeq)
	}

	s.Reset()
	s.est.Import(st.Window)
	s.margin = st.Margin
	if s.margin < s.cfg.MinMargin {
		s.margin = s.cfg.MinMargin
	}
	if s.margin > s.cfg.MaxMargin {
		s.margin = s.cfg.MaxMargin
	}
	s.fp = st.FP
	s.state = st.State
	if s.state != StateWarmup && !s.est.Full() {
		// A smaller restored window than the snapshot's detector had (or
		// a shrunk WindowSize) re-enters warmup honestly.
		s.state = StateWarmup
	}
	s.slotIndex = st.SlotIndex
	s.lastSeq, s.lastSend, s.lastDelay, s.haveSeq = st.LastSeq, st.LastSend, st.LastDelay, st.HaveSeq
	if st.GapAvgOK {
		s.gapAvg.Set(st.GapAvg)
	}
	if st.StepScale != 0 {
		s.stepScale = st.StepScale
	}
	s.lastDir = st.LastDir
	return nil
}

// Rewarm enters the warm-restart grace window after ImportState: the
// stale freshness point is cleared (the pre-outage suspicion deadline
// proves nothing about a sender that kept running while the monitor was
// down), the interrupted slot is discarded, and the safety margin is
// frozen for the next n fresh arrivals (n <= 0 defaults to one slot's
// worth). The first post-restore arrival still fills the downtime gap
// with the paper's d_i = Δt·n_ag + d_{i−1} rule — seq jumped while the
// monitor was away — but the gap is excluded from the n_ag average.
func (s *SFD) Rewarm(n int) {
	if n <= 0 {
		n = s.cfg.SlotHeartbeats
	}
	s.rewarmLeft = n
	s.rewarmGapSkip = true
	s.fp = 0
	s.slot = slotEvaluator{}
	s.slotCount = 0
}

// Rewarming reports how many fresh arrivals remain before the margin
// unfreezes (0 when not in a rewarm grace window).
func (s *SFD) Rewarming() int { return s.rewarmLeft }
