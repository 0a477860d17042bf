package registry

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
)

func TestStatusString(t *testing.T) {
	for _, s := range []Status{StatusUnknown, StatusActive, StatusBusy, StatusSuspected, StatusOffline, Status(42)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}

func TestStatusBoardFormatting(t *testing.T) {
	if FormatSnapshot(nil) != "(no peers)\n" {
		t.Fatal("empty snapshot format wrong")
	}
	reports := []Report{
		{Peer: "a", Status: StatusActive, Detector: "SFD"},
		{Peer: "b", Status: StatusSuspected, SuspicionLevel: 3.2, Detector: "SFD"},
		{Peer: "c", Status: StatusOffline, SuspicionLevel: 42, Detector: "SFD"},
	}
	board := FormatSnapshot(reports)
	for _, want := range []string{"a", "b", "c", "suspected", "offline", "detector"} {
		if !strings.Contains(board, want) {
			t.Fatalf("board missing %q:\n%s", want, board)
		}
	}
	counts, attention := Summarize(reports)
	if counts[StatusActive] != 1 || counts[StatusSuspected] != 1 || counts[StatusOffline] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if len(attention) != 2 || attention[0] != "b" || attention[1] != "c" {
		t.Fatalf("attention = %v", attention)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := New(clock.NewSim(0), chenFactory(100*ms, 50*ms), Options{})
	for _, p := range []string{"zeta", "alpha", "mid"} {
		if err := r.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot(0)
	if len(snap) != 3 || snap[0].Peer != "alpha" || snap[2].Peer != "zeta" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	for _, rep := range snap {
		if rep.Status != StatusUnknown || rep.Detector == "" {
			t.Fatalf("fresh peer report wrong: %+v", rep)
		}
	}
}

func TestBusyBandWithAccrual(t *testing.T) {
	// SFD's accrual level consumes the margin gradually: between BusyLevel
	// and SuspectLevel the server reports busy.
	factory := func(string) detector.Detector {
		return core.New(core.Config{WindowSize: 20, Interval: 100 * ms, InitialMargin: 200 * ms})
	}
	sim := clock.NewSim(0)
	r := New(sim, factory, Options{BusyLevel: 0.5, SuspectLevel: 1.0})
	r.Start()
	defer r.Stop()
	for i := 0; i < 40; i++ {
		r.Observe(heartbeat.Arrival{From: "srv", Seq: uint64(i), Send: sim.Now().Add(-2 * ms), Recv: sim.Now()})
		if i < 39 {
			sim.Advance(100 * ms)
		}
	}
	// At last + interval + 60% of margin: suspicion ≈ 0.6 → busy.
	sim.Advance(100*ms + 120*ms)
	st, _ := r.StatusOf("srv", sim.Now())
	lvl, _ := r.SuspicionOf("srv", sim.Now())
	if st != StatusBusy {
		t.Fatalf("status = %v (level %v), want busy", st, lvl)
	}
}

// TestDisabledNetsHoldStreams pins what MaxSilence: -1 / EvictAfter: -1
// mean, the options every caller ported from the pull-only Monitor
// passes: statuses come from the detector alone, and nothing leaves the
// board.
func TestDisabledNetsHoldStreams(t *testing.T) {
	sim := clock.NewSim(0)
	// Interval estimated: the detector needs two arrivals to form a
	// freshness point, so a one-shot stream never gets one.
	r := New(sim, chenFactory(0, 50*ms), Options{MaxSilence: -1, EvictAfter: -1, OfflineAfter: clock.Second})
	r.Start()
	defer r.Stop()
	r.Observe(heartbeat.Arrival{From: "flash", Seq: 0, Send: 0, Recv: sim.Now()})
	for i := 0; i < 20; i++ {
		r.Observe(heartbeat.Arrival{From: "dead", Seq: uint64(i), Send: sim.Now().Add(-2 * ms), Recv: sim.Now()})
		sim.Advance(100 * ms)
	}
	sim.Advance(3600 * clock.Second)
	if st, ok := r.StatusOf("flash", sim.Now()); !ok || st != StatusActive {
		t.Fatalf("one-shot stream without a silence net: %v (tracked %v), want active", st, ok)
	}
	if st, ok := r.StatusOf("dead", sim.Now()); !ok || st != StatusOffline {
		t.Fatalf("crashed stream without eviction: %v (tracked %v), want offline", st, ok)
	}
}
