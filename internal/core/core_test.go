package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/detector"
)

const msC = clock.Millisecond

func TestQoSString(t *testing.T) {
	q := QoS{TD: 300 * msC, MR: 0.01, QAP: 0.995}
	if q.String() == "" {
		t.Fatal("empty QoS string")
	}
	tg := Targets{MaxTD: time500(), MaxMR: 1, MinQAP: 0.9}
	if tg.String() == "" {
		t.Fatal("empty Targets string")
	}
}

func time500() clock.Duration { return 500 * msC }

func TestTargetsValid(t *testing.T) {
	cases := []struct {
		tg   Targets
		want bool
	}{
		{Targets{MaxTD: time500(), MaxMR: 1, MinQAP: 0.9}, true},
		{Targets{}, false},
		{Targets{MaxTD: -1, MaxMR: 1, MinQAP: 0.5}, false},
		{Targets{MaxTD: time500(), MaxMR: -1, MinQAP: 0.5}, false},
		{Targets{MaxTD: time500(), MaxMR: 1, MinQAP: 1.5}, false},
	}
	for i, c := range cases {
		if c.tg.Valid() != c.want {
			t.Errorf("case %d: Valid() = %v, want %v", i, c.tg.Valid(), c.want)
		}
	}
}

func TestDecideAllQuadrants(t *testing.T) {
	tg := Targets{MaxTD: 500 * msC, MaxMR: 0.1, MinQAP: 0.99}
	cases := []struct {
		q    QoS
		want Verdict
	}{
		// All satisfied → stable.
		{QoS{TD: 400 * msC, MR: 0.05, QAP: 0.995}, VerdictStable},
		// TD too slow, accuracy fine → decrease margin.
		{QoS{TD: 700 * msC, MR: 0.05, QAP: 0.995}, VerdictDecrease},
		// TD fine, MR too high → increase margin.
		{QoS{TD: 400 * msC, MR: 0.5, QAP: 0.995}, VerdictIncrease},
		// TD fine, QAP too low → increase margin.
		{QoS{TD: 400 * msC, MR: 0.05, QAP: 0.9}, VerdictIncrease},
		// Both violated → infeasible.
		{QoS{TD: 700 * msC, MR: 0.5, QAP: 0.9}, VerdictInfeasible},
		// Boundary: exactly at target is satisfied.
		{QoS{TD: 500 * msC, MR: 0.1, QAP: 0.99}, VerdictStable},
	}
	for i, c := range cases {
		if got := Decide(c.q, tg); got != c.want {
			t.Errorf("case %d: Decide = %v, want %v", i, got, c.want)
		}
	}
}

func TestSatSigns(t *testing.T) {
	if Sat(VerdictIncrease, 0.3) != 0.3 {
		t.Fatal("increase sign wrong")
	}
	if Sat(VerdictDecrease, 0.3) != -0.3 {
		t.Fatal("decrease sign wrong")
	}
	if Sat(VerdictStable, 0.3) != 0 || Sat(VerdictInfeasible, 0.3) != 0 {
		t.Fatal("neutral verdicts must not move the margin")
	}
}

func TestVerdictAndStateStrings(t *testing.T) {
	for _, v := range []Verdict{VerdictStable, VerdictIncrease, VerdictDecrease, VerdictInfeasible, Verdict(99)} {
		if v.String() == "" {
			t.Fatal("empty verdict string")
		}
	}
	for _, s := range []State{StateWarmup, StateTuning, StateStable, StateInfeasible, State(99)} {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
}

func TestSlotEvaluator(t *testing.T) {
	var s slotEvaluator
	if _, ok := s.measure(clock.Time(clock.Second)); ok {
		t.Fatal("unstarted slot measured ok")
	}
	s.begin(0)
	s.addTD(200 * msC)
	s.addTD(400 * msC)
	s.addMistake(0, clock.Time(100*msC))
	q, ok := s.measure(clock.Time(10 * clock.Second))
	if !ok {
		t.Fatal("slot with samples not ok")
	}
	if q.TD != 300*msC {
		t.Fatalf("TD = %v, want 300ms", q.TD)
	}
	if q.MR != 0.1 {
		t.Fatalf("MR = %v, want 0.1/s", q.MR)
	}
	if q.QAP != 0.99 {
		t.Fatalf("QAP = %v, want 0.99", q.QAP)
	}
}

func TestSlotEvaluatorClamps(t *testing.T) {
	var s slotEvaluator
	s.begin(0)
	s.addTD(-5 * msC)                // clamped to 0
	s.addMistake(clock.Time(msC), 0) // to before from: clamped to 0
	q, ok := s.measure(clock.Time(clock.Second))
	if !ok || q.TD != 0 || q.MR != 1 || q.QAP != 1 {
		t.Fatalf("clamped slot = %+v ok=%v", q, ok)
	}
}

// feedSFD drives an SFD with synthetic periodic heartbeats with the given
// jitter and per-heartbeat loss probability; returns the last recv time.
func feedSFD(s *SFD, n int, iv clock.Duration, jitter clock.Duration, loss float64, seed int64) clock.Time {
	rng := rand.New(rand.NewSource(seed))
	var send, last clock.Time
	for i := 0; i < n; i++ {
		if loss == 0 || rng.Float64() >= loss {
			d := clock.Duration(0)
			if jitter > 0 {
				d = clock.Duration(rng.Intn(int(jitter)))
			}
			recv := send.Add(5 * msC).Add(d)
			if recv <= last {
				recv = last + 1
			}
			s.Observe(uint64(i), send, recv)
			last = recv
		}
		send = send.Add(iv)
	}
	return last
}

func TestSFDDefaults(t *testing.T) {
	s := New(Config{})
	cfg := s.Config()
	def := DefaultConfig()
	if cfg.WindowSize != def.WindowSize || cfg.Alpha != def.Alpha ||
		cfg.Beta != def.Beta || cfg.SlotHeartbeats != def.SlotHeartbeats {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if s.State() != StateWarmup {
		t.Fatal("fresh SFD not in warmup")
	}
	if s.Response() == "" {
		t.Fatal("empty response")
	}
}

// TestSFDSharesConfig: SFDs of one effective configuration share one
// Config; a different configuration gets its own; Config returns a copy;
// and a sweep of more configurations than the table holds still hands
// every SFD exactly what it asked for.
func TestSFDSharesConfig(t *testing.T) {
	cfg := Config{WindowSize: 100, Interval: clock.Second, InitialMargin: 250 * msC}
	a, b := New(cfg), New(cfg)
	if a.cfg != b.cfg {
		t.Fatal("equal configurations not shared")
	}
	if c := New(Config{WindowSize: 101}); c.cfg == a.cfg {
		t.Fatal("different configurations shared")
	}
	got := a.Config()
	got.Alpha = 3600 * clock.Second
	if a.Config().Alpha == got.Alpha || b.Config() != a.Config() {
		t.Fatal("Config does not return a copy")
	}

	var sweep []*SFD
	for i := 1; i <= 3*len(configs.tab); i++ {
		sweep = append(sweep, New(Config{WindowSize: i}), New(cfg))
	}
	for i, s := range sweep {
		want := cfg.WindowSize
		if i%2 == 0 {
			want = i/2 + 1
		}
		if s.Config().WindowSize != want {
			t.Fatalf("sweep entry %d: window %d, want %d", i, s.Config().WindowSize, want)
		}
	}
}

// TestSFDSharesConfigConcurrently: registries build detectors from many
// shard goroutines at once, so New's shared table is reached concurrently.
// Every SFD still gets the configuration it asked for.
func TestSFDSharesConfigConcurrently(t *testing.T) {
	const workers, each = 8, 200
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ws := 1 + (w*each+i)%12 // more classes than the table holds
				if got := New(Config{WindowSize: ws}).Config().WindowSize; got != ws {
					errs <- fmt.Sprintf("worker %d: window %d, want %d", w, got, ws)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestSFDInitialMarginClamped(t *testing.T) {
	s := New(Config{InitialMargin: 3600 * clock.Second, MaxMargin: clock.Second})
	if s.Margin() != clock.Second {
		t.Fatalf("SM1 not clamped: %v", s.Margin())
	}
	s2 := New(Config{InitialMargin: -clock.Second})
	if s2.Margin() != 0 {
		t.Fatalf("negative SM1 not clamped: %v", s2.Margin())
	}
}

func TestSFDBasicDetection(t *testing.T) {
	s := New(Config{WindowSize: 50, Interval: 100 * msC, InitialMargin: 50 * msC})
	last := feedSFD(s, 100, 100*msC, 0, 0, 1)
	if !s.Ready() {
		t.Fatal("not ready after 100 heartbeats with WS=50")
	}
	fp := s.FreshnessPoint()
	if !fp.After(last) {
		t.Fatalf("FP %v not after last arrival %v", fp, last)
	}
	if s.Suspect(fp - 1) {
		t.Fatal("suspected before FP")
	}
	if !s.Suspect(fp + 1) {
		t.Fatal("not suspected after FP")
	}
}

func TestSFDSuspicionLevelAccrual(t *testing.T) {
	s := New(Config{WindowSize: 20, Interval: 100 * msC, InitialMargin: 100 * msC})
	feedSFD(s, 40, 100*msC, 0, 0, 1)
	fp := s.FreshnessPoint()
	ea := fp.Add(-s.Margin())
	if lvl := s.SuspicionLevel(ea - 1); lvl != 0 {
		t.Fatalf("level before EA = %v, want 0", lvl)
	}
	mid := s.SuspicionLevel(ea.Add(s.Margin() / 2))
	if mid <= 0.4 || mid >= 0.6 {
		t.Fatalf("level at half margin = %v, want ≈0.5", mid)
	}
	atFP := s.SuspicionLevel(fp)
	if atFP < 0.99 || atFP > 1.01 {
		t.Fatalf("level at FP = %v, want ≈1", atFP)
	}
	if s.SuspicionLevel(fp.Add(s.Margin())) <= atFP {
		t.Fatal("level not growing past FP")
	}
	// Monotone overall.
	prev := -1.0
	for dt := clock.Duration(0); dt < clock.Second; dt += 10 * msC {
		lvl := s.SuspicionLevel(ea.Add(dt))
		if lvl < prev {
			t.Fatalf("suspicion level decreased at +%v", dt)
		}
		prev = lvl
	}
}

func TestSFDTunesDownWhenTDTooSlow(t *testing.T) {
	// Huge initial margin, generous accuracy targets, tight TD target:
	// feedback must shrink the margin slot after slot.
	s := New(Config{
		WindowSize: 50, Interval: 100 * msC,
		InitialMargin: 2 * clock.Second, Alpha: 200 * msC, Beta: 0.5,
		SlotHeartbeats: 100,
		Targets:        Targets{MaxTD: 300 * msC, MaxMR: 10, MinQAP: 0.5},
	})
	feedSFD(s, 2000, 100*msC, 2*msC, 0, 2)
	if s.Margin() >= 2*clock.Second {
		t.Fatalf("margin did not shrink: %v", s.Margin())
	}
	hist := s.History()
	if len(hist) == 0 {
		t.Fatal("no adjustment history")
	}
	sawDecrease := false
	for _, a := range hist {
		if a.Verdict == VerdictDecrease {
			sawDecrease = true
		}
	}
	if !sawDecrease {
		t.Fatal("no decrease verdicts recorded")
	}
}

func TestSFDTunesUpWhenInaccurate(t *testing.T) {
	// Zero initial margin on a jittery link: mistakes are frequent, so
	// with a loose TD target feedback must grow the margin.
	s := New(Config{
		WindowSize: 50, Interval: 100 * msC,
		InitialMargin: 0, Alpha: 50 * msC, Beta: 0.5,
		SlotHeartbeats: 100,
		Targets:        Targets{MaxTD: 5 * clock.Second, MaxMR: 0.0001, MinQAP: 0.9999},
	})
	feedSFD(s, 3000, 100*msC, 80*msC, 0, 3)
	if s.Margin() <= 0 {
		t.Fatalf("margin did not grow: %v", s.Margin())
	}
}

func TestSFDStabilizesWhenSatisfied(t *testing.T) {
	s := New(Config{
		WindowSize: 50, Interval: 100 * msC,
		InitialMargin: 300 * msC, Alpha: 100 * msC, Beta: 0.5,
		SlotHeartbeats: 100,
		Targets:        Targets{MaxTD: clock.Second, MaxMR: 5, MinQAP: 0.5},
	})
	feedSFD(s, 1500, 100*msC, 2*msC, 0, 4)
	if s.State() != StateStable {
		t.Fatalf("state = %v, want stable", s.State())
	}
	// A stable detector keeps its margin.
	if s.Margin() != 300*msC {
		t.Fatalf("stable margin moved: %v", s.Margin())
	}
}

func TestSFDInfeasibleResponse(t *testing.T) {
	// Impossible request: sub-interval detection time AND near-perfect
	// accuracy on a jittery lossy link.
	s := New(Config{
		WindowSize: 50, Interval: 100 * msC,
		InitialMargin: 0, Alpha: 50 * msC, Beta: 0.5,
		SlotHeartbeats:   100,
		Targets:          Targets{MaxTD: msC, MaxMR: 1e-9, MinQAP: 0.999999},
		HaltOnInfeasible: true,
	})
	feedSFD(s, 3000, 100*msC, 80*msC, 0.05, 5)
	if s.State() != StateInfeasible {
		t.Fatalf("state = %v, want infeasible", s.State())
	}
	if s.Response() == "" {
		t.Fatal("no infeasibility response")
	}
	// Margin frozen after halt.
	m := s.Margin()
	feedSFD(s, 500, 100*msC, 80*msC, 0.05, 6)
	if s.Margin() != m {
		t.Fatal("margin moved after HaltOnInfeasible")
	}
}

func TestSFDNoTargetsNoTuning(t *testing.T) {
	s := New(Config{WindowSize: 20, Interval: 100 * msC, InitialMargin: 100 * msC, SlotHeartbeats: 50})
	feedSFD(s, 1000, 100*msC, 10*msC, 0, 7)
	if s.Margin() != 100*msC {
		t.Fatalf("margin moved without targets: %v", s.Margin())
	}
}

func TestSFDGapFillingKeepsEstimateThroughLoss(t *testing.T) {
	mk := func(fill bool) *SFD {
		return New(Config{
			WindowSize: 100, Interval: 100 * msC, InitialMargin: 50 * msC,
			FillGaps: fill, SlotHeartbeats: 1 << 30,
		})
	}
	withFill, withoutFill := mk(true), mk(false)
	feedSFD(withFill, 120, 100*msC, msC, 0.3, 8)
	feedSFD(withoutFill, 120, 100*msC, msC, 0.3, 8)
	// Both must still detect; the filled one keeps a denser window.
	if withFill.est.Len() <= withoutFill.est.Len() {
		t.Fatalf("gap filling did not densify window: %d vs %d",
			withFill.est.Len(), withoutFill.est.Len())
	}
	if withFill.FreshnessPoint() == 0 {
		t.Fatal("no freshness point with gap filling")
	}
}

func TestSFDGapFillCapped(t *testing.T) {
	s := New(Config{
		WindowSize: 50, Interval: 100 * msC, InitialMargin: 50 * msC,
		FillGaps: true, MaxGapFill: 4, SlotHeartbeats: 1 << 30,
	})
	// Two real arrivals around a 1000-heartbeat outage.
	s.Observe(0, 0, clock.Time(5*msC))
	s.Observe(1, clock.Time(100*msC), clock.Time(105*msC))
	s.Observe(1001, clock.Time(100100*msC), clock.Time(100105*msC))
	if s.est.Len() > 3+4 {
		t.Fatalf("gap fill exceeded cap: window len %d", s.est.Len())
	}
}

func TestSFDSetMarginClamps(t *testing.T) {
	s := New(Config{MaxMargin: clock.Second})
	s.SetMargin(5 * clock.Second)
	if s.Margin() != clock.Second {
		t.Fatal("SetMargin above max not clamped")
	}
	s.SetMargin(-clock.Second)
	if s.Margin() != 0 {
		t.Fatal("SetMargin below min not clamped")
	}
}

func TestSFDReset(t *testing.T) {
	s := New(Config{WindowSize: 20, Interval: 100 * msC, InitialMargin: 70 * msC,
		SlotHeartbeats: 50, Targets: Targets{MaxTD: clock.Second, MaxMR: 10, MinQAP: 0.1}})
	feedSFD(s, 500, 100*msC, 10*msC, 0.1, 9)
	s.Reset()
	if s.Margin() != 70*msC || s.State() != StateWarmup || s.FreshnessPoint() != 0 {
		t.Fatal("Reset incomplete")
	}
	if len(s.History()) != 0 {
		t.Fatal("history survived Reset")
	}
}

func TestSFDMistakeAccounting(t *testing.T) {
	// Deterministic scenario: regular heartbeats, then one very late
	// arrival — exactly one mistake must be recorded in the slot.
	s := New(Config{WindowSize: 10, Interval: 100 * msC, InitialMargin: 20 * msC,
		SlotHeartbeats: 1 << 30})
	var send clock.Time
	for i := 0; i < 20; i++ {
		s.Observe(uint64(i), send, send.Add(5*msC))
		send = send.Add(100 * msC)
	}
	if s.slot.mistakes != 0 {
		t.Fatalf("mistakes = %d before late arrival", s.slot.mistakes)
	}
	// Heartbeat 20 arrives 400 ms late — far past the freshness point.
	s.Observe(20, send, send.Add(400*msC))
	if s.slot.mistakes != 1 {
		t.Fatalf("mistakes = %d after late arrival, want 1", s.slot.mistakes)
	}
	if s.slot.mistakeDur <= 0 {
		t.Fatal("mistake duration not recorded")
	}
}

func TestSFDMarginNeverOutsideClampProperty(t *testing.T) {
	f := func(seed int64, jitterRaw, lossRaw uint8) bool {
		jitter := clock.Duration(jitterRaw) * msC / 4
		loss := float64(lossRaw%40) / 100
		s := New(Config{
			WindowSize: 30, Interval: 100 * msC,
			InitialMargin: 100 * msC, Alpha: 400 * msC, Beta: 0.9,
			SlotHeartbeats: 50, MaxMargin: clock.Second,
			Targets: Targets{MaxTD: 150 * msC, MaxMR: 0.001, MinQAP: 0.9999},
		})
		feedSFD(s, 2000, 100*msC, jitter, loss, seed)
		return s.Margin() >= 0 && s.Margin() <= clock.Second
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSFDAdaptiveStepDampsOscillation(t *testing.T) {
	// With a huge step, fixed-gain feedback overshoots the target band
	// and oscillates; the adaptive step must flip direction no more
	// often and end in a sane state.
	run := func(adaptive bool) (*SFD, int) {
		s := New(Config{
			WindowSize: 50, Interval: 100 * msC,
			InitialMargin: 2 * clock.Second, Alpha: 1600 * msC, Beta: 0.5,
			SlotHeartbeats: 100, AdaptiveStep: adaptive,
			Targets: Targets{MaxTD: 400 * msC, MaxMR: 10, MinQAP: 0.5},
		})
		feedSFD(s, 6000, 100*msC, 5*msC, 0, 77)
		flips, prevDir := 0, 0
		hist := s.History()
		for i := 1; i < len(hist); i++ {
			d := 0
			if hist[i].Margin > hist[i-1].Margin {
				d = 1
			} else if hist[i].Margin < hist[i-1].Margin {
				d = -1
			}
			if d != 0 && prevDir != 0 && d != prevDir {
				flips++
			}
			if d != 0 {
				prevDir = d
			}
		}
		return s, flips
	}
	fixedSFD, fixedFlips := run(false)
	adaptiveSFD, adaptiveFlips := run(true)
	if adaptiveFlips > fixedFlips {
		t.Fatalf("adaptive step flipped more: %d vs %d", adaptiveFlips, fixedFlips)
	}
	// Both must keep the margin inside the clamp; adaptive should not be
	// stuck at the initial value.
	if adaptiveSFD.Margin() == 2*clock.Second && len(adaptiveSFD.History()) > 2 {
		t.Fatal("adaptive step never moved the margin")
	}
	_ = fixedSFD
}

func TestSFDAdaptiveStepResets(t *testing.T) {
	s := New(Config{AdaptiveStep: true, Interval: 100 * msC, WindowSize: 20,
		SlotHeartbeats: 50, Alpha: 400 * msC,
		Targets: Targets{MaxTD: 200 * msC, MaxMR: 10, MinQAP: 0.5}})
	feedSFD(s, 1000, 100*msC, 5*msC, 0, 78)
	s.Reset()
	if s.stepScale != 1 || s.lastDir != 0 {
		t.Fatal("adaptive state survived Reset")
	}
}

func TestSelfTunerWrapsChen(t *testing.T) {
	ch := detector.NewChen(50, 100*msC, 2*clock.Second)
	st := NewSelfTuner(TunableChen{ch}, TunerOptions{
		Alpha: 200 * msC, Beta: 0.5, SlotHeartbeats: 100,
		Targets: Targets{MaxTD: 300 * msC, MaxMR: 10, MinQAP: 0.5},
	})
	rng := rand.New(rand.NewSource(11))
	var send clock.Time
	for i := 0; i < 2000; i++ {
		recv := send.Add(5 * msC).Add(clock.Duration(rng.Intn(int(2 * msC))))
		st.Observe(uint64(i), send, recv)
		send = send.Add(100 * msC)
	}
	if ch.Alpha() >= 2*clock.Second {
		t.Fatalf("SelfTuner did not shrink Chen's α: %v", ch.Alpha())
	}
	if st.State() == StateWarmup {
		t.Fatal("tuner stuck in warmup")
	}
	if len(st.History()) == 0 {
		t.Fatal("no history")
	}
	if st.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestSelfTunerWrapsFixed(t *testing.T) {
	fx := detector.NewFixed(5*clock.Second, 10)
	st := NewSelfTuner(TunableFixed{fx}, TunerOptions{
		Alpha: clock.Second, Beta: 0.5, SlotHeartbeats: 50,
		Targets:  Targets{MaxTD: 500 * msC, MaxMR: 10, MinQAP: 0.5},
		MinParam: 10 * msC,
	})
	var send clock.Time
	for i := 0; i < 1000; i++ {
		st.Observe(uint64(i), send, send.Add(3*msC))
		send = send.Add(100 * msC)
	}
	if fx.Timeout() >= 5*clock.Second {
		t.Fatalf("SelfTuner did not shrink Fixed timeout: %v", fx.Timeout())
	}
	if fx.Timeout() < 10*msC {
		t.Fatal("MinParam clamp violated")
	}
}

func TestSelfTunerResetAndDelegation(t *testing.T) {
	ch := detector.NewChen(10, 100*msC, 100*msC)
	st := NewSelfTuner(TunableChen{ch}, TunerOptions{})
	var send clock.Time
	for i := 0; i < 30; i++ {
		st.Observe(uint64(i), send, send.Add(msC))
		send = send.Add(100 * msC)
	}
	if !st.Ready() {
		t.Fatal("Ready not delegated")
	}
	fp := st.FreshnessPoint()
	if fp == 0 || fp != ch.FreshnessPoint() {
		t.Fatal("FreshnessPoint not delegated")
	}
	if st.Suspect(fp+1) != ch.Suspect(fp+1) {
		t.Fatal("Suspect not delegated")
	}
	st.Reset()
	if st.State() != StateWarmup || ch.FreshnessPoint() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func BenchmarkSFDObserve(b *testing.B) {
	s := New(Config{WindowSize: 1000, Interval: 100 * msC, InitialMargin: 100 * msC,
		Targets: Targets{MaxTD: clock.Second, MaxMR: 1, MinQAP: 0.99}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := clock.Time(i) * clock.Time(100*msC)
		s.Observe(uint64(i), t, t.Add(3*msC))
	}
}
