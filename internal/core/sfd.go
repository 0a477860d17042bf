package core

import (
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/stats"
)

// State is the externally visible phase of the self-tuning loop.
type State int

const (
	// StateWarmup: the sampling window is still filling.
	StateWarmup State = iota
	// StateTuning: SM is being adjusted toward the target QoS.
	StateTuning
	// StateStable: the output QoS satisfied the targets in the most
	// recent slot ("the SFD stabilizes the parameters", §IV-A).
	StateStable
	// StateInfeasible: both speed and accuracy targets were violated —
	// "This SFD can not satisfy the QoS for the application".
	StateInfeasible
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateWarmup:
		return "warmup"
	case StateTuning:
		return "tuning"
	case StateStable:
		return "stable"
	case StateInfeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config parameterizes an SFD instance.
type Config struct {
	// WindowSize is the sliding-window size WS (default 1000, the
	// paper's experimental setting).
	WindowSize int
	// Interval is the known heartbeat sending interval Δt; 0 estimates
	// it from the sampling window (§IV-C: "get the average inter-arrival
	// time Δt in this sliding window").
	Interval clock.Duration
	// InitialMargin is SM₁, the starting safety margin. The paper's
	// sweeps list SM₁ values; "In order to find the best QoS ... we set
	// SM₁ = α".
	InitialMargin clock.Duration
	// Alpha is the base adjustment scale α of Eq. 12 — the margin moves
	// by Sat·α = ±β·α per slot.
	Alpha clock.Duration
	// Beta is the adjusting-rate constant β ∈ (0,1) of Eq. 13.
	Beta float64
	// Targets is the application's required QoS (Q̄oS).
	Targets Targets
	// SlotHeartbeats is the number of arrivals per feedback slot
	// (parameters are adjusted at most once per slot). Default 500.
	SlotHeartbeats int
	// MinMargin/MaxMargin clamp SM. Defaults: 0 and 10 s (matching
	// Chen's α ∈ [0, 10000] ms sweep range).
	MinMargin clock.Duration
	MaxMargin clock.Duration
	// FillGaps enables the §IV-C time-series gap filling for lost
	// heartbeats: d_i = Δt·n_ag + d_{i−1}.
	FillGaps bool
	// MaxGapFill caps how many synthetic samples a single loss burst may
	// inject (long outages would otherwise flood the window). Default 8.
	MaxGapFill int
	// HaltOnInfeasible, when true, stops further margin adjustment after
	// an infeasible verdict (Algorithm 1 "stop SFD"); detection itself
	// continues. When false SFD keeps trying (the network may improve).
	HaltOnInfeasible bool
	// InvertFeedback is an ABLATION HOOK: it applies Algorithm 1's
	// printed signs literally (+β when TD is too slow, −β when accuracy
	// is violated) instead of the semantically consistent rule DESIGN.md
	// §4 argues for. With it on, feedback pushes the margin away from
	// the target box — the ablation benchmark uses it to show the signs
	// in the paper's listing must be typos.
	InvertFeedback bool
	// AdaptiveStep enables the extension the paper leaves to users ("the
	// value β is for the adjusting rate, and it could be dynamically
	// chosen by users", §IV-B): the effective step halves every time the
	// feedback direction flips and recovers by 25% on every repeat of
	// the same direction, bounded to [β·α/16, β·α]. Large steps cross
	// the gap quickly; shrinking on overshoot kills the oscillation the
	// step-size ablation exhibits.
	AdaptiveStep bool
	// HistoryCap is how many of the most recent slot evaluations History
	// keeps (0 = 16). The log grows by append up to the cap, then
	// overwrites its oldest entry, so a long-lived stream costs a bounded
	// amount and LastAdjustment keeps advancing. Offline experiments that
	// print a whole trajectory set it to the slot count they replay.
	HistoryCap int
}

// DefaultConfig returns the paper-faithful configuration: WS=1000,
// α=100 ms, β=0.5, SM₁=α, slot=500 heartbeats, gap filling on.
func DefaultConfig() Config {
	return Config{
		WindowSize:     detector.DefaultWindowSize,
		InitialMargin:  100 * clock.Millisecond,
		Alpha:          100 * clock.Millisecond,
		Beta:           0.5,
		SlotHeartbeats: 500,
		MaxMargin:      10 * clock.Second,
		FillGaps:       true,
		MaxGapFill:     8,
	}
}

// Adjustment is one entry of the self-tuning history: the slot's measured
// QoS, the verdict, and the margin after applying it.
type Adjustment struct {
	Slot     int
	At       clock.Time
	Measured QoS
	Verdict  Verdict
	Margin   clock.Duration
}

// defaultHistoryCap is the HistoryCap default: enough slots for an
// operator to see the recent trajectory, a bounded cost per stream.
const defaultHistoryCap = 16

// adjustLog is a keep-last ring of slot evaluations. It grows by append
// up to its cap — one or two entries cost what a plain slice would — and
// then overwrites the oldest entry.
type adjustLog struct {
	buf  []Adjustment
	next int // once full: the slot of the oldest entry, overwritten next
}

func (l *adjustLog) add(a Adjustment, capacity int) {
	if len(l.buf) < capacity {
		l.buf = append(l.buf, a)
		return
	}
	l.buf[l.next] = a
	l.next = (l.next + 1) % len(l.buf)
}

// last returns the newest entry.
func (l *adjustLog) last() (Adjustment, bool) {
	if len(l.buf) == 0 {
		return Adjustment{}, false
	}
	return l.buf[(l.next+len(l.buf)-1)%len(l.buf)], true
}

// entries returns the log oldest first. Before the ring wraps that is the
// buffer itself; after, a copy.
func (l *adjustLog) entries() []Adjustment {
	if l.next == 0 {
		return l.buf
	}
	out := make([]Adjustment, 0, len(l.buf))
	return append(append(out, l.buf[l.next:]...), l.buf[:l.next]...)
}

// SFD is the Self-tuning Failure Detector (§IV-B). It implements
// detector.Detector and detector.Accrual.
type SFD struct {
	cfg *Config // shared with every SFD of the same configuration; never written
	est detector.ArrivalEstimator

	margin clock.Duration
	fp     clock.Time
	state  State

	slot      slotEvaluator
	slotIndex int
	slotCount int

	// Gap filling state.
	lastSeq   uint64
	lastSend  clock.Time
	lastDelay clock.Duration
	gapAvg    stats.EWMA // n_ag: average observed adjacent-gap length
	haveSeq   bool

	// Adaptive-step state (Config.AdaptiveStep).
	lastDir   int8    // sign of the previous nonzero adjustment
	stepScale float64 // multiplier on β·α, in [1/16, 1]

	// Rewarm state (warm restart; see Rewarm). While rewarmLeft > 0 the
	// margin is frozen: the post-restore slots measure QoS over a window
	// that straddles the outage and would otherwise jerk SM around.
	rewarmLeft int
	// rewarmGapSkip suppresses the first gap's n_ag sample after a
	// restore: the downtime gap is the monitor's fault, not the
	// network's, and folding it into the loss-burst average would
	// inflate every subsequent gap fill.
	rewarmGapSkip bool

	history adjustLog
}

// New returns an SFD with the given configuration; zero fields take the
// defaults of DefaultConfig.
func New(cfg Config) *SFD {
	def := DefaultConfig()
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = def.WindowSize
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = def.Alpha
	}
	if cfg.Beta <= 0 || cfg.Beta >= 1 {
		cfg.Beta = def.Beta
	}
	if cfg.SlotHeartbeats <= 0 {
		cfg.SlotHeartbeats = def.SlotHeartbeats
	}
	if cfg.MaxMargin <= 0 {
		cfg.MaxMargin = def.MaxMargin
	}
	if cfg.MaxGapFill <= 0 {
		cfg.MaxGapFill = def.MaxGapFill
	}
	if cfg.HistoryCap <= 0 {
		cfg.HistoryCap = defaultHistoryCap
	}
	if cfg.InitialMargin < cfg.MinMargin {
		cfg.InitialMargin = cfg.MinMargin
	}
	if cfg.InitialMargin > cfg.MaxMargin {
		cfg.InitialMargin = cfg.MaxMargin
	}
	return &SFD{
		cfg:       internConfig(cfg),
		est:       detector.NewArrivalEstimator(cfg.WindowSize, cfg.Interval),
		margin:    cfg.InitialMargin,
		gapAvg:    *stats.NewEWMA(0.1),
		stepScale: 1,
	}
}

// configs is the small table New shares effective configurations from,
// so the streams of one class hold one Config between them instead of a
// copy each. It is bounded and replaced round-robin: a process that makes
// many distinct configurations (sweeps, ablations) costs a copy per miss,
// never a table that grows. Sharing is invisible to callers: only equal
// values are shared, and no SFD writes its Config after New.
var configs struct {
	mu   sync.Mutex
	tab  [8]*Config
	next int
}

// internConfig returns the table's copy of cfg, adding one if it has none.
func internConfig(cfg Config) *Config {
	configs.mu.Lock()
	defer configs.mu.Unlock()
	for _, c := range configs.tab {
		if c != nil && *c == cfg {
			return c
		}
	}
	c := &cfg
	configs.tab[configs.next] = c
	configs.next = (configs.next + 1) % len(configs.tab)
	return c
}

// Observe implements detector.Detector. send is the sender's timestamp
// carried in the heartbeat; recv the monitor's arrival time.
func (s *SFD) Observe(seq uint64, send, recv clock.Time) {
	// A heartbeat arriving after the freshness point expired proves the
	// suspicion that began at fp was a mistake. If no slot is open yet
	// (first arrival after an ImportState), it opens at fp so the wrong
	// suspicion's duration is charged instead of wiped by begin() below.
	if s.fp != 0 && recv.After(s.fp) {
		if !s.slot.started {
			s.slot.begin(s.fp)
		}
		s.slot.addMistake(s.fp, recv)
	}

	// §IV-C gap filling: lost heartbeats leave no delay sample; fill the
	// gap with d_j = Δt·n_ag + d_{j−1} so the estimator keeps tracking
	// through loss bursts.
	if s.haveSeq && seq > s.lastSeq+1 {
		gap := int(seq - s.lastSeq - 1)
		if !s.rewarmGapSkip {
			s.gapAvg.Add(float64(gap))
		}
		if s.cfg.FillGaps {
			s.fillGap(seq, gap, recv)
		}
	} else if s.haveSeq && !s.rewarmGapSkip {
		s.gapAvg.Add(0)
	}
	s.rewarmGapSkip = false

	s.est.Observe(seq, recv)

	if !s.slot.started {
		s.slot.begin(recv)
	}

	if ea, ok := s.est.Expected(); ok {
		s.fp = ea.Add(s.margin)
		// Worst-case detection time with current parameters: crash right
		// after this heartbeat was sent ⇒ suspected at the new fp.
		s.slot.addTD(s.fp.Sub(send))
	}

	s.lastSeq, s.lastSend, s.haveSeq = seq, send, true
	s.lastDelay = recv.Sub(send)
	if s.state == StateWarmup && s.est.Full() {
		s.state = StateTuning
	}

	s.slotCount++
	if s.slotCount >= s.cfg.SlotHeartbeats {
		// Close before spending this arrival's rewarm credit: a slot
		// whose last arrival is still inside the grace window straddles
		// restored history and must not tune the margin.
		s.closeSlot(recv)
	}
	if s.rewarmLeft > 0 {
		s.rewarmLeft--
	}
}

// fillGap injects synthetic arrivals for up to MaxGapFill lost heartbeats
// preceding the arrival of seq at recv. Synthetic arrivals are clamped to
// recv: the compounded delay d_j = Δt·n_ag + d_{j−1} plus the per-position
// send offset can exceed the real arrival after a long burst, and the
// estimator must never see a sample later than an event that has already
// happened (it would inflate EA for a full window length).
func (s *SFD) fillGap(seq uint64, gap int, recv clock.Time) {
	dt := s.est.Interval()
	if dt <= 0 {
		dt = s.cfg.Interval
	}
	if dt <= 0 {
		return
	}
	nag := s.gapAvg.Value()
	if nag < 1 {
		nag = 1
	}
	fill := gap
	if fill > s.cfg.MaxGapFill {
		fill = s.cfg.MaxGapFill
	}
	// Fill the most recent `fill` positions of the gap.
	firstFilled := int(seq-s.lastSeq) - fill // offset from lastSeq
	d := s.lastDelay
	for off := firstFilled; off < int(seq-s.lastSeq); off++ {
		j := s.lastSeq + uint64(off)
		d = d + clock.Duration(float64(dt)*nag)
		synthSend := s.lastSend.Add(clock.Duration(off) * dt)
		arr := synthSend.Add(d)
		if arr.After(recv) {
			arr = recv
		}
		s.est.Observe(j, arr)
	}
}

// closeSlot evaluates the slot QoS and applies Algorithm 1.
func (s *SFD) closeSlot(now clock.Time) {
	measured, ok := s.slot.measure(now)
	s.slotCount = 0
	s.slotIndex++
	defer s.slot.begin(now)
	if !ok || s.state == StateWarmup {
		return
	}
	if s.rewarmLeft > 0 {
		// Warm-restart grace: the slot straddles restored history and the
		// outage, so its QoS is not evidence about the live network; keep
		// SM exactly where the previous life tuned it.
		return
	}
	if s.state == StateInfeasible && s.cfg.HaltOnInfeasible {
		return
	}
	if !s.cfg.Targets.Valid() {
		// No (valid) requirement: run as a plain adaptive FD.
		return
	}

	v := Decide(measured, s.cfg.Targets)
	sat := Sat(v, s.cfg.Beta)
	if s.cfg.AdaptiveStep && sat != 0 {
		dir := int8(1)
		if sat < 0 {
			dir = -1
		}
		switch {
		case s.lastDir != 0 && dir != s.lastDir:
			s.stepScale /= 2 // overshoot: damp
			if s.stepScale < 1.0/16 {
				s.stepScale = 1.0 / 16
			}
		case dir == s.lastDir:
			s.stepScale *= 1.25 // persistent gap: accelerate
			if s.stepScale > 1 {
				s.stepScale = 1
			}
		}
		s.lastDir = dir
		sat *= s.stepScale
	}
	delta := clock.Duration(sat * float64(s.cfg.Alpha))
	if s.cfg.InvertFeedback {
		delta = -delta
	}
	s.margin += delta
	if s.margin < s.cfg.MinMargin {
		s.margin = s.cfg.MinMargin
	}
	if s.margin > s.cfg.MaxMargin {
		s.margin = s.cfg.MaxMargin
	}

	switch v {
	case VerdictStable:
		s.state = StateStable
	case VerdictInfeasible:
		s.state = StateInfeasible
	default:
		s.state = StateTuning
	}

	s.history.add(Adjustment{
		Slot: s.slotIndex, At: now, Measured: measured, Verdict: v, Margin: s.margin,
	}, s.cfg.HistoryCap)
}

// FreshnessPoint implements detector.Detector.
func (s *SFD) FreshnessPoint() clock.Time { return s.fp }

// Suspect implements detector.Detector.
func (s *SFD) Suspect(now clock.Time) bool {
	return s.fp != 0 && now.After(s.fp)
}

// SuspicionLevel implements detector.Accrual: the fraction of the safety
// margin consumed past the expected arrival time. It is 0 while the next
// heartbeat is not yet due, reaches 1 exactly at the freshness point, and
// grows without bound afterwards — applications trigger graduated
// reactions at their own thresholds (§I: "an application may take
// precautionary measures when the confidence reaches a given low level
// ... more drastic actions once the doubt progresses").
func (s *SFD) SuspicionLevel(now clock.Time) float64 {
	if s.fp == 0 {
		return 0
	}
	ea := s.fp.Add(-s.margin)
	if !now.After(ea) {
		return 0
	}
	m := float64(s.margin)
	if m <= 0 {
		m = 1 // degenerate zero margin: any overshoot is full suspicion
	}
	return float64(now.Sub(ea)) / m
}

// Ready implements detector.Detector.
func (s *SFD) Ready() bool { return s.est.Full() }

// Name implements detector.Detector.
func (s *SFD) Name() string {
	return fmt.Sprintf("SFD(SM₁=%v,α=%v,β=%g)", s.cfg.InitialMargin, s.cfg.Alpha, s.cfg.Beta)
}

// Reset implements detector.Detector.
func (s *SFD) Reset() {
	s.est.Reset()
	s.margin = s.cfg.InitialMargin
	s.fp = 0
	s.state = StateWarmup
	s.slot = slotEvaluator{}
	s.slotIndex, s.slotCount = 0, 0
	s.lastSeq, s.lastSend, s.lastDelay, s.haveSeq = 0, 0, 0, false
	s.gapAvg = *stats.NewEWMA(0.1)
	s.stepScale, s.lastDir = 1, 0
	s.rewarmLeft, s.rewarmGapSkip = 0, false
	s.history = adjustLog{}
}

// Margin returns the current dynamic safety margin SM.
func (s *SFD) Margin() clock.Duration { return s.margin }

// SetMargin overrides SM (used by the generic SelfTuner and by tests).
func (s *SFD) SetMargin(m clock.Duration) {
	if m < s.cfg.MinMargin {
		m = s.cfg.MinMargin
	}
	if m > s.cfg.MaxMargin {
		m = s.cfg.MaxMargin
	}
	s.margin = m
}

// State returns the current tuning state.
func (s *SFD) State() State { return s.state }

// Response returns the human-readable status the paper's Algorithm 1
// emits, e.g. the infeasibility response of line 14.
func (s *SFD) Response() string {
	switch s.state {
	case StateInfeasible:
		return fmt.Sprintf("this SFD can not satisfy the QoS requirement %v for the application", s.cfg.Targets)
	case StateStable:
		return fmt.Sprintf("output QoS satisfies %v; parameters stable at SM=%v", s.cfg.Targets, s.margin)
	case StateTuning:
		return fmt.Sprintf("adjusting SM (currently %v) toward %v", s.margin, s.cfg.Targets)
	default:
		return "warming up: sampling window not yet full"
	}
}

// History returns the last HistoryCap evaluated slots, oldest first.
func (s *SFD) History() []Adjustment { return s.history.entries() }

// LastAdjustment returns the most recent slot evaluation, if any — the
// measured QoS and verdict the metrics layer exposes per stream.
func (s *SFD) LastAdjustment() (Adjustment, bool) { return s.history.last() }

// Config returns the effective configuration after defaulting.
func (s *SFD) Config() Config { return *s.cfg }
