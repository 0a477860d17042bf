package bench

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/federate"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
	"repro/internal/registry"
)

const msK = clock.Millisecond

func chenFactory(alpha clock.Duration) registry.Factory {
	return func(string) detector.Detector {
		return detector.NewChen(50, 100*msK, alpha)
	}
}

// detectorOnly are the options of a monitor whose statuses come from
// its detectors alone, as the scenarios here assume: no silence net
// under them, and crashed servers stay on the board.
var detectorOnly = registry.Options{MaxSilence: -1, EvictAfter: -1}

func TestQuorumMasksSingleMonitorMistake(t *testing.T) {
	clk := clock.NewSim(0)
	// feed delivers n regular heartbeats from srv to a fresh registry.
	feed := func(n int) (*registry.Registry, clock.Time) {
		m := registry.New(clk, chenFactory(50*msK), detectorOnly)
		var last clock.Time
		for i := 0; i < n; i++ {
			send := clock.Time(i) * clock.Time(100*msK)
			last = send.Add(2 * msK)
			m.Observe(heartbeat.Arrival{From: "srv", Seq: uint64(i), Send: send, Recv: last})
		}
		return m, last
	}
	// All three watch srv; m1 misses the last heartbeats (its own path
	// lost them), so it alone suspects.
	m1, _ := feed(55)
	m2, last := feed(60)
	m3, _ := feed(60)
	q := Quorum{Monitors: []federate.StatusSource{m1, m2, m3}}
	now := last.Add(50 * msK)
	sus, votes := q.Suspected("srv", now)
	if sus {
		t.Fatalf("quorum suspected with %d vote(s)", votes)
	}
	if votes != 1 {
		t.Fatalf("votes = %d, want 1 (only the lossy monitor)", votes)
	}
	// Explicit Need=1 turns it into an any-of alarm.
	q.Need = 1
	if sus, _ := q.Suspected("srv", now); !sus {
		t.Fatal("Need=1 quorum did not suspect")
	}
}

func TestSimClusterCrashDetection(t *testing.T) {
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 5 * msK, JitterMean: msK, JitterStd: msK}, 1)
	mon := sc.AddMonitor("q", chenFactory(100*msK), detectorOnly)
	srv := sc.AddSender("p", 100*msK, 2*msK, "q")
	mon.watch("p")

	sc.RunFor(20*clock.Second, 10*msK)
	if st, _ := mon.Reg.StatusOf("p", sc.Clk.Now()); st != registry.StatusActive {
		t.Fatalf("server not active while alive: %v", st)
	}
	srv.Crash()
	lat, ok := sc.DetectCrash("q", "p", 10*clock.Second)
	if !ok {
		t.Fatal("crash never detected")
	}
	// Detection should land near Δt + margin (+ link delay): well under 1s.
	if lat > clock.Second {
		t.Fatalf("detection latency %v too large", lat)
	}
	// Crash marked the registry's ground truth; the wheel's suspect
	// transition scored it, within a tick of the polled latency.
	sc.RunFor(20*msK, 10*msK)
	if dl := mon.Reg.DetectionLatency(); dl.Samples != 1 || dl.Pending != 0 ||
		dl.P50 <= 0 || dl.P50 > lat.Seconds()+0.1 {
		t.Fatalf("ground-truth latency %+v, polled %v", dl, lat)
	}
}

func TestSimClusterOneMonitorsMultiple(t *testing.T) {
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK}, 2)
	mon := sc.AddMonitor("q", chenFactory(150*msK), detectorOnly)
	const n = 10
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i)
		sc.AddSender(name, 100*msK, 2*msK, "q")
		mon.watch(name)
	}
	sc.RunFor(15*clock.Second, 10*msK)
	snap := mon.Reg.Snapshot(sc.Clk.Now())
	if len(snap) != n {
		t.Fatalf("snapshot has %d peers, want %d", len(snap), n)
	}
	for _, r := range snap {
		if r.Status != registry.StatusActive {
			t.Fatalf("%s: status %v, want active", r.Peer, r.Status)
		}
	}
	// Crash three of them; all three must be detected, others unaffected.
	for i := 0; i < 3; i++ {
		sc.Sender(fmt.Sprintf("p%d", i)).Crash()
	}
	sc.RunFor(2*clock.Second, 10*msK)
	now := sc.Clk.Now()
	for i := 0; i < n; i++ {
		st, _ := mon.Reg.StatusOf(fmt.Sprintf("p%d", i), now)
		if i < 3 && st < registry.StatusSuspected {
			t.Fatalf("crashed p%d not suspected: %v", i, st)
		}
		if i >= 3 && st != registry.StatusActive {
			t.Fatalf("alive p%d wrongly %v", i, st)
		}
	}
}

func TestSimClusterBusyServer(t *testing.T) {
	factory := func(string) detector.Detector {
		return core.New(core.Config{WindowSize: 30, Interval: 100 * msK, InitialMargin: 300 * msK})
	}
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK}, 3)
	mon := sc.AddMonitor("q", factory, registry.Options{BusyLevel: 0.3, SuspectLevel: 1.0, MaxSilence: -1, EvictAfter: -1})
	srv := sc.AddSender("p", 100*msK, msK, "q")
	mon.watch("p")
	sc.RunFor(10*clock.Second, 10*msK)

	// Make the server sluggish: +150 ms per beat stretches arrivals into
	// the busy band without crossing the 300 ms margin.
	srv.SetBusy(150 * msK)
	sawBusy := false
	for i := 0; i < 400; i++ {
		sc.RunFor(50*msK, 10*msK)
		if st, _ := mon.Reg.StatusOf("p", sc.Clk.Now()); st == registry.StatusBusy {
			sawBusy = true
			break
		}
	}
	if !sawBusy {
		t.Fatal("sluggish server never classified busy")
	}
}

func TestConsortiumScenario(t *testing.T) {
	con := BuildConsortium(ConsortiumConfig{
		ServersPerCloud: 2,
		Interval:        100 * msK,
		Jitter:          2 * msK,
		Factory:         chenFactory(250 * msK),
		Seed:            7,
	})
	if len(con.Clouds) != 5 {
		t.Fatalf("clouds = %d, want 5", len(con.Clouds))
	}
	con.RunFor(20*clock.Second, 10*msK)

	// Every manager sees its own servers active.
	now := con.Clk.Now()
	for name, cl := range con.Clouds {
		for _, srv := range cl.Servers {
			st, ok := cl.Manager.Reg.StatusOf(srv.name, now)
			if !ok || st != registry.StatusActive {
				t.Fatalf("%s: server %s status %v", name, srv.name, st)
			}
		}
	}
	// Every manager sees every other cloud's beacon active.
	for name, cl := range con.Clouds {
		for other := range con.Clouds {
			if other == name {
				continue
			}
			st, ok := cl.Manager.Reg.StatusOf(other+"/beacon", now)
			if !ok || st != registry.StatusActive {
				t.Fatalf("%s: beacon of %s status %v (ok=%v)", name, other, st, ok)
			}
		}
	}

	// Crash GA's beacon: the cross-cloud quorum must agree.
	con.Sender("GA/beacon").Crash()
	con.RunFor(3*clock.Second, 10*msK)
	q := con.CrossCloudQuorum("GA")
	sus, votes := q.Suspected("GA/beacon", con.Clk.Now())
	if !sus {
		t.Fatalf("consortium did not reach quorum on crashed beacon (votes=%d)", votes)
	}
}

func TestDetectCrashEdgeCases(t *testing.T) {
	sc := NewSimCluster(netsim.LinkParams{DelayBase: msK}, 4)
	sc.AddMonitor("q", chenFactory(100*msK), detectorOnly)
	sc.AddSender("p", 100*msK, 0, "q")
	// Unknown names.
	if _, ok := sc.DetectCrash("ghost", "p", clock.Second); ok {
		t.Fatal("unknown monitor accepted")
	}
	if _, ok := sc.DetectCrash("q", "ghost", clock.Second); ok {
		t.Fatal("unknown peer accepted")
	}
	// Peer not crashed.
	if _, ok := sc.DetectCrash("q", "p", clock.Second); ok {
		t.Fatal("DetectCrash on live peer succeeded")
	}
}

func TestElectionConvergesAcrossSimCluster(t *testing.T) {
	// Every node heartbeats to every other; each runs its own monitor and
	// elector. After warm-up all agree on p0; after p0 crashes all
	// converge to p1 — Ω in action.
	sc := NewSimCluster(netsim.LinkParams{DelayBase: 2 * msK, JitterMean: msK, JitterStd: msK}, 11)
	const n = 4
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	monitors := make([]*SimMonitor, n)
	electors := make([]*federate.Elector, n)
	for i, name := range names {
		monitors[i] = sc.AddMonitor(name+"/mon", chenFactory(200*msK), detectorOnly)
	}
	for i, name := range names {
		var targets []string
		for j := range names {
			if j != i {
				targets = append(targets, names[j]+"/mon")
			}
		}
		sc.AddSender(name, 100*msK, 2*msK, targets...)
		for j := range names {
			if j != i {
				monitors[j].watch(name)
			}
		}
	}
	for i, name := range names {
		electors[i] = federate.NewElector(name, monitors[i].Reg, names)
	}

	sc.RunFor(15*clock.Second, 10*msK)
	now := sc.Clk.Now()
	for i, e := range electors {
		if l := e.Leader(now); l != "p0" {
			t.Fatalf("elector %d picked %q before crash, want p0", i, l)
		}
	}

	sc.Sender("p0").Crash()
	sc.RunFor(3*clock.Second, 10*msK)
	now = sc.Clk.Now()
	for i, e := range electors {
		l := e.Leader(now)
		want := "p1"
		if i == 0 {
			continue // the crashed node's own elector is moot
		}
		if l != want {
			t.Fatalf("elector %d picked %q after crash, want %q", i, l, want)
		}
	}
}
