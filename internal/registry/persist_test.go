package registry

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/persist"
)

// persistFactory builds self-tuning detectors small enough to warm up
// within a short simulated run.
func persistFactory(interval clock.Duration) Factory {
	return func(string) detector.Detector {
		return core.New(core.Config{
			WindowSize:     32,
			Interval:       interval,
			InitialMargin:  200 * ms,
			SlotHeartbeats: 16,
		})
	}
}

func persistOpts(dir string) Options {
	return Options{
		WheelTick:          10 * ms,
		OfflineAfter:       500 * ms,
		EvictAfter:         clock.Second,
		MaxSilence:         -1, // deadline discipline comes from the detector
		StateDir:           dir,
		CheckpointInterval: 2 * clock.Second,
		JournalFlush:       100 * ms,
		RewarmGrace:        clock.Second,
	}
}

func beatAt(r *Registry, sim *clock.Sim, peer string, seq, inc uint64) {
	now := sim.Now()
	r.Observe(heartbeat.Arrival{From: peer, Seq: seq, Send: now.Add(-2 * ms), Recv: now, Inc: inc})
}

func eventsByPeer(evs []Event) map[string][]Event {
	m := map[string][]Event{}
	for _, ev := range evs {
		m[ev.Peer] = append(m[ev.Peer], ev)
	}
	return m
}

// TestWarmRestartNoSpuriousSuspects is the core robustness property:
// streams that kept heartbeating through a short monitor outage must
// produce zero suspect transitions after a warm restart, and their
// incarnations must not regress.
func TestWarmRestartNoSpuriousSuspects(t *testing.T) {
	dir := t.TempDir()
	peers := []string{"srv-0", "srv-1", "srv-2", "srv-3"}
	incs := map[string]uint64{"srv-0": 0, "srv-1": 3, "srv-2": 0, "srv-3": 7}

	// First life: 50 beats per peer on a 100 ms cadence, then a clean stop.
	sim1 := clock.NewSim(0)
	r1 := New(sim1, persistFactory(100*ms), persistOpts(dir))
	r1.Start()
	sub1 := r1.Subscribe(256)
	for i := 0; i < 50; i++ {
		for _, p := range peers {
			beatAt(r1, sim1, p, uint64(i), incs[p])
		}
		sim1.Advance(100 * ms)
	}
	if evs := drain(sub1); len(evs) != 0 {
		t.Fatalf("first life produced events while healthy: %v", evs)
	}
	r1.Stop()

	// Second life, 300 ms of downtime. The senders kept running: they are
	// 3 sequence numbers ahead when the monitor comes back.
	const downtime = 300 * ms
	sim2 := clock.NewSim(0)
	r2 := New(sim2, persistFactory(100*ms), persistOpts(dir))
	n, err := r2.RestoreFromDisk(downtime)
	if err != nil {
		t.Fatalf("RestoreFromDisk: %v", err)
	}
	if n != len(peers) {
		t.Fatalf("restored %d streams, want %d", n, len(peers))
	}
	r2.Start()
	defer r2.Stop()

	for _, p := range peers {
		if inc, ok := r2.IncarnationOf(p); !ok || inc != incs[p] {
			t.Fatalf("%s incarnation = %d (ok=%v), want %d — regressed across restart", p, inc, ok, incs[p])
		}
		if st, ok := r2.StatusOf(p, sim2.Now()); !ok || st != StatusActive {
			t.Fatalf("%s restored as %v, want active", p, st)
		}
		if st, ok := r2.Stats(p); !ok || st.Heartbeats != 50 {
			t.Fatalf("%s stats not restored: %+v", p, st)
		}
		ok := r2.Inspect(p, func(det detector.Detector) {
			if sfd, isSFD := det.(*core.SFD); !isSFD || sfd.Rewarming() == 0 {
				t.Errorf("%s detector not in rewarm grace after restore", p)
			}
		})
		if !ok {
			t.Fatalf("%s not inspectable after restore", p)
		}
	}

	// Resume heartbeats for 3 s — past the rewarm grace window — and
	// demand total silence on the event bus.
	sub2 := r2.Subscribe(256)
	seq := uint64(50 + 3) // 50 sent pre-crash + 3 lost to downtime
	for i := 0; i < 30; i++ {
		for _, p := range peers {
			beatAt(r2, sim2, p, seq+uint64(i), incs[p])
		}
		sim2.Advance(100 * ms)
	}
	if evs := drain(sub2); len(evs) != 0 {
		t.Fatalf("warm restart produced spurious events: %v", evs)
	}
	for _, p := range peers {
		if st, ok := r2.StatusOf(p, sim2.Now()); !ok || st != StatusActive {
			t.Fatalf("%s = %v after resumed beating, want active", p, st)
		}
	}
}

// TestWarmRestartSilentStreamStillSuspected: the rewarm grace must not
// turn into amnesty. A restored stream that never heartbeats again walks
// suspect → offline → evicted on the normal machinery, starting at the
// grace deadline.
func TestWarmRestartSilentStreamStillSuspected(t *testing.T) {
	dir := t.TempDir()
	sim1 := clock.NewSim(0)
	r1 := New(sim1, persistFactory(100*ms), persistOpts(dir))
	r1.Start()
	for i := 0; i < 50; i++ {
		beatAt(r1, sim1, "dead", uint64(i), 0)
		beatAt(r1, sim1, "live", uint64(i), 0)
		sim1.Advance(100 * ms)
	}
	r1.Stop()

	sim2 := clock.NewSim(0)
	r2 := New(sim2, persistFactory(100*ms), persistOpts(dir))
	if _, err := r2.RestoreFromDisk(300 * ms); err != nil {
		t.Fatalf("RestoreFromDisk: %v", err)
	}
	r2.Start()
	defer r2.Stop()
	sub := r2.Subscribe(256)

	// "live" resumes; "dead" stays silent past grace (1 s) + offline
	// (500 ms) + evict (1 s).
	for i := 0; i < 30; i++ {
		beatAt(r2, sim2, "live", uint64(53+i), 0)
		sim2.Advance(100 * ms)
	}

	by := eventsByPeer(drain(sub))
	if len(by["live"]) != 0 {
		t.Fatalf("live peer got events: %v", by["live"])
	}
	evs := by["dead"]
	want := []EventType{EventSuspect, EventOffline, EventEvicted}
	if len(evs) != len(want) {
		t.Fatalf("dead peer events = %v, want %v", evs, want)
	}
	for i, ev := range evs {
		if ev.Type != want[i] {
			t.Fatalf("dead peer event %d = %v, want %v", i, ev.Type, want[i])
		}
	}
	// Suspicion began at the rewarm-grace deadline, not instantly at
	// restart and not at some stale pre-crash freshness point.
	grace := clock.Time(persistOpts(dir).RewarmGrace)
	if evs[0].At < grace || evs[0].At > grace.Add(100*ms) {
		t.Fatalf("suspect fired at %v, want ≈ grace %v", evs[0].At, grace)
	}
	if _, ok := r2.StatusOf("dead", sim2.Now()); ok {
		t.Fatal("dead peer still present after eviction")
	}
}

// TestWarmRestartResumesSuspicion: a stream suspected before the crash
// comes back suspected, and its offline deadline credits the time it was
// already under suspicion — including the downtime itself.
func TestWarmRestartResumesSuspicion(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir)
	opts.OfflineAfter = 2 * clock.Second

	sim1 := clock.NewSim(0)
	r1 := New(sim1, persistFactory(100*ms), opts)
	r1.Start()
	sub1 := r1.Subscribe(256)
	for i := 0; i < 50; i++ {
		beatAt(r1, sim1, "flaky", uint64(i), 0)
		beatAt(r1, sim1, "steady", uint64(i), 0)
		sim1.Advance(100 * ms)
	}
	// "flaky" goes silent; run until the wheel suspects it.
	for i := 50; i < 58; i++ {
		beatAt(r1, sim1, "steady", uint64(i), 0)
		sim1.Advance(100 * ms)
	}
	by := eventsByPeer(drain(sub1))
	if len(by["flaky"]) != 1 || by["flaky"][0].Type != EventSuspect {
		t.Fatalf("flaky pre-crash events = %v, want one suspect", by["flaky"])
	}
	r1.Stop()

	sim2 := clock.NewSim(0)
	r2 := New(sim2, persistFactory(100*ms), opts)
	if _, err := r2.RestoreFromDisk(300 * ms); err != nil {
		t.Fatalf("RestoreFromDisk: %v", err)
	}
	r2.Start()
	defer r2.Stop()
	if st, ok := r2.StatusOf("flaky", sim2.Now()); !ok || st != StatusSuspected {
		t.Fatalf("flaky restored as %v, want suspected", st)
	}

	sub2 := r2.Subscribe(256)
	for i := 0; i < 18; i++ { // 1.8 s < OfflineAfter from restart
		beatAt(r2, sim2, "steady", uint64(61+i), 0)
		sim2.Advance(100 * ms)
	}
	by = eventsByPeer(drain(sub2))
	evs := by["flaky"]
	if len(evs) != 1 || evs[0].Type != EventOffline {
		t.Fatalf("flaky post-restart events = %v, want exactly one offline (no fresh suspect)", evs)
	}
	// The episode started ≈ 0.6 s before the crash plus 0.3 s downtime, so
	// offline must land well before a from-scratch 2 s OfflineAfter would.
	if evs[0].At >= clock.Time(opts.OfflineAfter) {
		t.Fatalf("offline at %v: suspicion clock restarted instead of resuming", evs[0].At)
	}
	if len(by["steady"]) != 0 {
		t.Fatalf("steady got events: %v", by["steady"])
	}
}

// TestRestartRecoversJournalDeltas simulates a hard kill (no final
// snapshot): a phase transition that only made it into the delta journal
// must still be visible after restart.
func TestRestartRecoversJournalDeltas(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir)
	opts.CheckpointInterval = clock.Duration(3600) * clock.Second // journal-only after the first full

	sim1 := clock.NewSim(0)
	r1 := New(sim1, persistFactory(100*ms), opts)
	r1.Start()
	for i := 0; i < 50; i++ {
		beatAt(r1, sim1, "flaky", uint64(i), 0)
		beatAt(r1, sim1, "steady", uint64(i), 0)
		sim1.Advance(100 * ms)
	}
	// flaky goes silent long enough to be suspected — but not long enough
	// to go offline (that would be at suspectSince + 500 ms ≈ 5.7 s);
	// journal flushes run every 100 ms, so the suspect delta is durable
	// well before the "kill".
	for i := 50; i < 55; i++ {
		beatAt(r1, sim1, "steady", uint64(i), 0)
		sim1.Advance(100 * ms)
	}
	if c := r1.Checkpointer(); c == nil || c.Deltas() == 0 {
		t.Fatal("suspect delta never reached the journal")
	}
	// Hard kill: r1 is abandoned without Stop — no final snapshot.

	sim2 := clock.NewSim(0)
	r2 := New(sim2, persistFactory(100*ms), opts)
	n, err := r2.RestoreFromDisk(300 * ms)
	if err != nil {
		t.Fatalf("RestoreFromDisk: %v", err)
	}
	if n != 2 {
		t.Fatalf("restored %d streams, want 2", n)
	}
	if st, ok := r2.StatusOf("flaky", sim2.Now()); !ok || st != StatusSuspected {
		t.Fatalf("flaky = %v, want suspected (journal delta lost?)", st)
	}
	if st, ok := r2.StatusOf("steady", sim2.Now()); !ok || st != StatusActive {
		t.Fatalf("steady = %v, want active", st)
	}
}

// TestRestartColdStartsOnCorruptState: a mangled state directory must
// produce a working cold-started registry (plus a reported error), and
// the next clean shutdown heals the directory.
func TestRestartColdStartsOnCorruptState(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-00000001.full"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	sim := clock.NewSim(0)
	r := New(sim, persistFactory(100*ms), persistOpts(dir))
	r.Start()
	n, err := r.RestoredStreams()
	if n != 0 || err == nil {
		t.Fatalf("corrupt dir: restored=%d err=%v, want 0 with an error", n, err)
	}
	if !errors.Is(err, persist.ErrNoSnapshot) || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt dir error %q should wrap ErrNoSnapshot and name the corruption", err)
	}
	for i := 0; i < 40; i++ {
		beatAt(r, sim, "srv-0", uint64(i), 0)
		sim.Advance(100 * ms)
	}
	if st, ok := r.StatusOf("srv-0", sim.Now()); !ok || st != StatusActive {
		t.Fatalf("cold-started registry broken: %v", st)
	}
	r.Stop() // writes a fresh, valid snapshot past the corrupt epoch

	sim2 := clock.NewSim(0)
	r2 := New(sim2, persistFactory(100*ms), persistOpts(dir))
	if n, err := r2.RestoreFromDisk(100 * ms); err != nil || n != 1 {
		t.Fatalf("post-heal restore: n=%d err=%v, want 1 stream", n, err)
	}
}

// TestPhaseWire keeps the registry's unexported phase constants in
// lockstep with the persistence wire constants.
func TestPhaseWire(t *testing.T) {
	pairs := []struct {
		p phase
		w uint8
	}{
		{phaseTrusted, persist.PhaseTrusted},
		{phaseSuspected, persist.PhaseSuspected},
		{phaseOffline, persist.PhaseOffline},
	}
	for _, pw := range pairs {
		if phaseWire(pw.p) != pw.w {
			t.Errorf("phaseWire(%v) = %d, want %d", pw.p, phaseWire(pw.p), pw.w)
		}
		if wirePhase(pw.w) != pw.p {
			t.Errorf("wirePhase(%d) = %v, want %v", pw.w, wirePhase(pw.w), pw.p)
		}
	}
}
