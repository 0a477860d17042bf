package core

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/trace"
)

// restartTrace materializes a deterministic jittery heartbeat trace so
// every detector variant in the regression sees identical arrivals.
func restartTrace(t *testing.T) []trace.Record {
	t.Helper()
	gen := trace.NewGenerator(trace.GenParams{
		Count:           2000,
		Seed:            7,
		IntervalMean:    100 * clock.Millisecond,
		IntervalStd:     5 * clock.Millisecond,
		IntervalMin:     50 * clock.Millisecond,
		DelayBase:       20 * clock.Millisecond,
		DelayJitterMean: 5 * clock.Millisecond,
		DelayJitterStd:  2 * clock.Millisecond,
		LossRate:        0.01,
		MeanBurst:       1.5,
	})
	var recs []trace.Record
	for {
		rec, ok := gen.Next()
		if !ok {
			return recs
		}
		recs = append(recs, rec)
	}
}

func restartTraceConfig() Config {
	return Config{
		WindowSize:     64,
		Interval:       100 * clock.Millisecond,
		InitialMargin:  150 * clock.Millisecond,
		Alpha:          20 * clock.Millisecond,
		Beta:           0.5,
		SlotHeartbeats: 50,
		Targets:        Targets{MaxTD: 500 * clock.Millisecond, MaxMR: 0.5, MinQAP: 0.9},
		FillGaps:       true,
		MaxGapFill:     8,
		HistoryCap:     40, // every slot of restartTrace's 2000 arrivals
	}
}

func observeRecord(s *SFD, rec trace.Record) {
	if !rec.Lost {
		s.Observe(rec.Seq, rec.SendTime, rec.RecvTime)
	}
}

// TestRestoreOnTraceMatchesUninterrupted is the warm-restart regression:
// a detector restored from a snapshot and rewarmed must track the QoS of
// an uninterrupted detector on the same trace — no post-restart mistake
// spike — while the pre-fix behavior (restoring the state but keeping the
// stale freshness point, i.e. no Rewarm) demonstrably does spike MR and
// crater QAP in its first slot.
func TestRestoreOnTraceMatchesUninterrupted(t *testing.T) {
	recs := restartTrace(t)
	cfg := restartTraceConfig()
	const cut = 1000
	const downtime = 2 * clock.Second

	// Uninterrupted reference run over the whole trace.
	a := New(cfg)
	for _, rec := range recs {
		observeRecord(a, rec)
	}
	if a.State() != StateStable {
		t.Fatalf("reference run ended in %v, want stable", a.State())
	}

	// First life observes the first half, then "crashes".
	b := New(cfg)
	var cutRecv clock.Time
	for _, rec := range recs[:cut] {
		observeRecord(b, rec)
		if !rec.Lost {
			cutRecv = rec.RecvTime
		}
	}
	st := b.ExportState()
	resumeAt := cutRecv.Add(downtime)

	// tail = arrivals after the monitor comes back. Heartbeats sent while
	// it was down are simply never observed (the sender kept running).
	var tail []trace.Record
	for _, rec := range recs[cut:] {
		if !rec.Lost && rec.RecvTime >= resumeAt {
			tail = append(tail, rec)
		}
	}
	if len(tail) < 5*cfg.SlotHeartbeats {
		t.Fatalf("tail too short (%d arrivals) — trace/downtime mismatch", len(tail))
	}

	// Warm restart: import + rewarm (what the registry does).
	warm := New(cfg)
	if err := warm.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	warm.Rewarm(0)

	// Pre-fix restart: state restored but the stale freshness point kept.
	// The first post-downtime arrival lands long after it and is booked as
	// a detector mistake.
	prefix := New(cfg)
	if err := prefix.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}

	for _, rec := range tail {
		observeRecord(warm, rec)
		observeRecord(prefix, rec)
	}

	// Reference tail QoS: the slots the uninterrupted run evaluated over
	// the same wall-clock region.
	var refMaxMR, refMinQAP float64 = 0, 1
	refSlots := 0
	for _, adj := range a.History() {
		if adj.At < resumeAt {
			continue
		}
		refSlots++
		if adj.Measured.MR > refMaxMR {
			refMaxMR = adj.Measured.MR
		}
		if adj.Measured.QAP < refMinQAP {
			refMinQAP = adj.Measured.QAP
		}
	}
	if refSlots == 0 {
		t.Fatal("reference run has no tail slots")
	}

	// The warm restart's slots (all post-restart: import clears history)
	// must match the reference within ε — no mistake spike, no QAP dip.
	const epsMR, epsQAP = 0.05, 0.02
	warmSlots := warm.History()
	if len(warmSlots) == 0 {
		t.Fatal("warm restart evaluated no slots")
	}
	for i, adj := range warmSlots {
		if adj.Measured.MR > refMaxMR+epsMR {
			t.Errorf("warm slot %d: MR %.3g/s, reference max %.3g/s — post-restart mistake spike", i, adj.Measured.MR, refMaxMR)
		}
		if adj.Measured.QAP < refMinQAP-epsQAP {
			t.Errorf("warm slot %d: QAP %.4f, reference min %.4f", i, adj.Measured.QAP, refMinQAP)
		}
	}

	// Margin re-converges to the uninterrupted run's within 10 slots.
	if len(warmSlots) > 10 {
		warmSlots = warmSlots[:10]
	}
	end := warmSlots[len(warmSlots)-1].Margin
	if d := end - a.Margin(); d > 2*cfg.Alpha || d < -2*cfg.Alpha {
		t.Errorf("warm margin %v vs uninterrupted %v: did not re-converge within 10 slots", end, a.Margin())
	}

	// The pre-fix variant books the entire downtime as a wrong suspicion:
	// its first slot records the mistake and the QAP crater — nearly two
	// seconds of false suspicion against a ~five-second slot — that the
	// warm path avoids. (Plain MR is dominated by ordinary loss-induced
	// mistakes either way; the duration-weighted QAP is the clean signal.)
	preSlots := prefix.History()
	if len(preSlots) == 0 {
		t.Fatal("pre-fix variant evaluated no slots")
	}
	first := preSlots[0].Measured
	if first.MR == 0 {
		t.Error("pre-fix first slot has no mistake — the rewarm grace is no longer load-bearing")
	}
	if first.QAP >= refMinQAP-0.1 {
		t.Errorf("pre-fix first slot QAP %.4f shows no crater (reference min %.4f) — the rewarm grace is no longer load-bearing", first.QAP, refMinQAP)
	}
	if warmFirst := warm.History()[0].Measured; warmFirst.QAP <= first.QAP {
		t.Errorf("warm restart (QAP %.4f) not better than pre-fix (QAP %.4f)", warmFirst.QAP, first.QAP)
	}
	// And the suspicion hazard itself: at the moment the monitor returns,
	// the stale freshness point makes the pre-fix detector suspect a
	// perfectly healthy sender; the rewarmed one does not.
	pre2 := New(cfg)
	if err := pre2.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if !pre2.Suspect(resumeAt) {
		t.Error("pre-fix detector does not suspect at restart — stale fp hazard gone?")
	}
	warm2 := New(cfg)
	if err := warm2.ImportState(st); err != nil {
		t.Fatal(err)
	}
	warm2.Rewarm(0)
	if warm2.Suspect(resumeAt) {
		t.Error("rewarmed detector suspects at restart — spurious suspicion")
	}
}
