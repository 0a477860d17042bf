package core

import (
	"runtime"
	"testing"

	"repro/internal/clock"
)

// Edge-condition tests for SFD beyond the main behavioural suite.

func TestSFDHistoryCapHonored(t *testing.T) {
	s := New(Config{
		WindowSize: 10, Interval: 100 * msC, InitialMargin: 50 * msC,
		SlotHeartbeats: 20, HistoryCap: 5,
		Targets: Targets{MaxTD: clock.Second, MaxMR: 10, MinQAP: 0.5},
	})
	feedSFD(s, 5000, 100*msC, 2*msC, 0, 41)
	checkKeepsLast(t, s.History(), 5, 5000/20)
	if last, _ := s.LastAdjustment(); last.Slot != 5000/20 {
		t.Fatalf("LastAdjustment().Slot = %d, want %d", last.Slot, 5000/20)
	}
}

// checkKeepsLast asserts that hist holds exactly the n slots ending at
// slot last, oldest first.
func checkKeepsLast(t *testing.T, hist []Adjustment, n, last int) {
	t.Helper()
	if len(hist) != n {
		t.Fatalf("history holds %d entries, want %d", len(hist), n)
	}
	for i, a := range hist {
		if want := last - n + 1 + i; a.Slot != want {
			t.Fatalf("history[%d].Slot = %d, want %d (keep-last, oldest first)", i, a.Slot, want)
		}
	}
}

// TestSFDAdjustmentLogKeepsAdvancing runs detectors through 10 000 slots:
// the adjustment log must keep its newest 16 entries (so LastAdjustment,
// which the per-stream gauges and federation digests read, reaches the
// final slot) and a detector must cost the same heap at slot 10 000 as at
// slot 100.
func TestSFDAdjustmentLogKeepsAdvancing(t *testing.T) {
	const (
		detectors = 64
		slotHB    = 5
		slots     = 10_000
	)
	cfg := Config{
		WindowSize: 10, Interval: 100 * msC, InitialMargin: 50 * msC,
		SlotHeartbeats: slotHB,
		Targets:        Targets{MaxTD: clock.Second, MaxMR: 10, MinQAP: 0.5},
	}
	dets := make([]*SFD, detectors)
	for i := range dets {
		dets[i] = New(cfg)
	}
	var seq uint64
	runTo := func(slot int) {
		for ; seq < uint64(slot*slotHB); seq++ {
			send := clock.Time(seq) * clock.Time(100*msC)
			for _, s := range dets {
				s.Observe(seq, send, send.Add(2*msC))
			}
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	runTo(100)
	at100 := heap()
	runTo(slots)
	at10k := heap()
	runtime.KeepAlive(dets)

	for _, s := range dets {
		if last, ok := s.LastAdjustment(); !ok || last.Slot != slots {
			t.Fatalf("LastAdjustment().Slot = %d (ok %v), want %d", last.Slot, ok, slots)
		}
		checkKeepsLast(t, s.History(), defaultHistoryCap, slots)
	}
	// The log stopped growing at its cap long before slot 100, so the heap
	// is the same up to the runtime's own few kilobytes (the race runtime
	// allocates some lazily); the keep-first log grew 56 B per slot.
	if grew := int64(at10k) - int64(at100); grew > detectors*256 {
		t.Fatalf("heap grew %d B per detector between slot 100 and slot %d", grew/detectors, slots)
	}
}

func TestSFDZeroMarginSuspicionLevel(t *testing.T) {
	// A zero margin makes the accrual denominator degenerate; the level
	// must stay finite and still cross 1 after the freshness point.
	s := New(Config{WindowSize: 10, Interval: 100 * msC, InitialMargin: 0,
		MinMargin: 0, SlotHeartbeats: 1 << 30})
	last := feedSFD(s, 30, 100*msC, 0, 0, 42)
	fp := s.FreshnessPoint()
	lvl := s.SuspicionLevel(fp + clock.Time(10*msC))
	if lvl <= 0 || lvl != lvl /* NaN check */ {
		t.Fatalf("degenerate level = %v", lvl)
	}
	_ = last
}

func TestSFDGapFillWithoutIntervalKnowledge(t *testing.T) {
	// Interval = 0 and only one arrival before a gap: fillGap must not
	// panic or fabricate samples without an interval estimate.
	s := New(Config{WindowSize: 10, FillGaps: true, SlotHeartbeats: 1 << 30})
	s.Observe(0, 0, clock.Time(5*msC))
	s.Observe(10, clock.Time(clock.Second), clock.Time(clock.Second).Add(5*msC))
	if s.est.Len() > 2 {
		t.Fatalf("fabricated %d samples without an interval", s.est.Len())
	}
}

func TestSFDSlotSpanningLoss(t *testing.T) {
	// A slot that contains only losses (no arrivals) must not divide by
	// zero or emit a bogus adjustment when the next arrival finally
	// lands.
	s := New(Config{WindowSize: 10, Interval: 100 * msC, InitialMargin: 50 * msC,
		SlotHeartbeats: 5, Targets: Targets{MaxTD: clock.Second, MaxMR: 10, MinQAP: 0.1}})
	var send clock.Time
	for i := 0; i < 20; i++ {
		s.Observe(uint64(i), send, send.Add(3*msC))
		send = send.Add(100 * msC)
	}
	// 50 lost heartbeats (sequence jump), then arrivals resume.
	send = send.Add(50 * 100 * msC)
	for i := 70; i < 90; i++ {
		s.Observe(uint64(i), send, send.Add(3*msC))
		send = send.Add(100 * msC)
	}
	if s.FreshnessPoint() == 0 {
		t.Fatal("detector lost its freshness point across the outage")
	}
	if s.Margin() < 0 || s.Margin() > s.Config().MaxMargin {
		t.Fatalf("margin out of clamp after outage: %v", s.Margin())
	}
}

func TestDecideBoundaryExactness(t *testing.T) {
	// Measured exactly equal to targets on all three axes is satisfied
	// (the paper defines violation as QoS > Q̄oS).
	tg := Targets{MaxTD: 100 * msC, MaxMR: 0.5, MinQAP: 0.99}
	if v := Decide(QoS{TD: 100 * msC, MR: 0.5, QAP: 0.99}, tg); v != VerdictStable {
		t.Fatalf("boundary verdict = %v", v)
	}
}

func TestSelfTunerInfeasibleHalts(t *testing.T) {
	st := NewSelfTuner(newFixedForTest(), TunerOptions{
		SlotHeartbeats: 50, HaltOnInfeasible: true,
		Targets: Targets{MaxTD: clock.Duration(1), MaxMR: 1e-12, MinQAP: 0.999999999},
	})
	var send clock.Time
	for i := 0; i < 10000; i++ {
		// Jittery enough to violate accuracy, slow enough to violate TD.
		recv := send.Add(clock.Duration(i%7) * 20 * msC)
		if recv <= send {
			recv = send + 1
		}
		st.Observe(uint64(i), send, recv)
		send = send.Add(100 * msC)
	}
	if st.State() != StateInfeasible {
		t.Fatalf("state = %v, want infeasible", st.State())
	}
}

// TestSelfTunerHistoryKeepsLast: the generic tuner shares SFD's keep-last
// log, so its newest entry is the last slot it evaluated.
func TestSelfTunerHistoryKeepsLast(t *testing.T) {
	st := NewSelfTuner(newFixedForTest(), TunerOptions{
		SlotHeartbeats: 10,
		Targets:        Targets{MaxTD: 2 * clock.Second, MaxMR: 10, MinQAP: 0.5},
	})
	var send clock.Time
	for i := 0; i < 1000; i++ {
		st.Observe(uint64(i), send, send.Add(2*msC))
		send = send.Add(100 * msC)
	}
	checkKeepsLast(t, st.History(), defaultHistoryCap, 1000/10)
}

func newFixedForTest() *fixedShim { return &fixedShim{timeout: clock.Second} }

// fixedShim is a minimal local Tunable target so the SelfTuner test does
// not depend on detector internals.
type fixedShim struct {
	timeout clock.Duration
	last    clock.Time
	n       int
}

func (f *fixedShim) Observe(seq uint64, send, recv clock.Time) { f.last = recv; f.n++ }
func (f *fixedShim) FreshnessPoint() clock.Time {
	if f.n == 0 {
		return 0
	}
	return f.last.Add(f.timeout)
}
func (f *fixedShim) Suspect(now clock.Time) bool { return f.n > 0 && now.After(f.FreshnessPoint()) }
func (f *fixedShim) Ready() bool                 { return f.n >= 2 }
func (f *fixedShim) Name() string                { return "shim" }
func (f *fixedShim) Reset()                      { *f = fixedShim{timeout: f.timeout} }

// Tunable implementation.
func (f *fixedShim) TuningParam() clock.Duration     { return f.timeout }
func (f *fixedShim) SetTuningParam(d clock.Duration) { f.timeout = d }
