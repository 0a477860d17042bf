package sfd_test

import (
	"bytes"
	"testing"
	"time"

	sfd "repro"
)

// These tests exercise the repository through its public API only — the
// way a downstream user would.

const msA = sfd.Duration(time.Millisecond)

func TestPublicSFDLifecycle(t *testing.T) {
	det := sfd.NewSFD(sfd.Config{
		WindowSize: 50,
		Interval:   100 * msA,
		Targets:    sfd.Targets{MaxTD: time.Second, MaxMR: 1, MinQAP: 0.99},
	})
	var last sfd.Time
	for i := 0; i < 200; i++ {
		send := sfd.Time(i) * sfd.Time(100*msA)
		recv := send.Add(3 * msA)
		det.Observe(uint64(i), send, recv)
		last = recv
	}
	if !det.Ready() {
		t.Fatal("not ready")
	}
	if det.Suspect(last.Add(10 * msA)) {
		t.Fatal("suspecting a live process")
	}
	if !det.Suspect(last.Add(10 * time.Second)) {
		t.Fatal("not suspecting after long silence")
	}
	if det.State() == sfd.StateWarmup {
		t.Fatal("still in warmup")
	}
	if det.Response() == "" {
		t.Fatal("no response text")
	}
}

func TestPublicBaselinesImplementDetector(t *testing.T) {
	dets := []sfd.Detector{
		sfd.NewChen(100, 100*msA, 50*msA),
		sfd.NewBertier(100, 100*msA, sfd.BertierParams{}),
		sfd.NewPhi(100, 8, 0),
		sfd.NewFixed(500*msA, 5),
		sfd.NewSFD(sfd.Config{Interval: 100 * msA}),
	}
	for _, d := range dets {
		var last sfd.Time
		for i := 0; i < 150; i++ {
			send := sfd.Time(i) * sfd.Time(100*msA)
			last = send.Add(2 * msA)
			d.Observe(uint64(i), send, last)
		}
		if d.FreshnessPoint() == 0 {
			t.Errorf("%s: no freshness point", d.Name())
		}
		if !d.Suspect(last.Add(time.Minute)) {
			t.Errorf("%s: not suspecting after a minute of silence", d.Name())
		}
		d.Reset()
		if d.FreshnessPoint() != 0 {
			t.Errorf("%s: Reset incomplete", d.Name())
		}
	}
}

func TestPublicAccrualDetectors(t *testing.T) {
	accruals := []sfd.Accrual{
		sfd.NewPhi(100, 4, 0),
		sfd.NewSFD(sfd.Config{Interval: 100 * msA, InitialMargin: 100 * msA}),
	}
	for _, a := range accruals {
		var last sfd.Time
		for i := 0; i < 120; i++ {
			send := sfd.Time(i) * sfd.Time(100*msA)
			last = send.Add(2 * msA)
			a.Observe(uint64(i), send, last)
		}
		lvlNow := a.SuspicionLevel(last.Add(10 * msA))
		lvlLate := a.SuspicionLevel(last.Add(5 * time.Second))
		if lvlLate <= lvlNow {
			t.Errorf("%s: suspicion not increasing (%v → %v)", a.Name(), lvlNow, lvlLate)
		}
	}
}

func TestPublicTracePipeline(t *testing.T) {
	gp, err := sfd.TracePreset("WAN-1")
	if err != nil {
		t.Fatal(err)
	}
	gp.Count = 5000
	tr := sfd.CollectTrace(gp.Meta, sfd.NewTraceGenerator(gp))
	if tr.Len() != 5000 {
		t.Fatalf("trace len %d", tr.Len())
	}

	st := sfd.AnalyzeTrace("WAN-1", tr.Stream())
	if st.Total != 5000 {
		t.Fatalf("analyze total %d", st.Total)
	}

	var buf bytes.Buffer
	if err := sfd.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := sfd.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatal("codec round trip lost records")
	}

	res := sfd.Replay(tr.Stream(), sfd.NewChen(200, 0, 100*msA))
	if res.Arrivals == 0 || res.TDAvg <= 0 {
		t.Fatalf("replay result empty: %+v", res)
	}

	out := sfd.ReplayWithCrash(tr.Stream(), sfd.NewChen(200, 0, 100*msA), 2500)
	if out.Latency <= 0 {
		t.Fatal("crash replay found no latency")
	}

	curve := sfd.Sweep(tr, "chen", func(a float64) sfd.Detector {
		return sfd.NewChen(200, 0, sfd.Duration(a)*msA)
	}, []float64{0, 100, 400})
	if len(curve.Points) != 3 {
		t.Fatal("sweep points missing")
	}
}

func TestPublicPresetNames(t *testing.T) {
	names := sfd.TracePresetNames()
	if len(names) != 7 || names[0] != "WAN-JPCH" {
		t.Fatalf("preset names = %v", names)
	}
}

func TestPublicLiveStackOverHub(t *testing.T) {
	hub := sfd.NewHub(0, 0, 1)
	pEP := hub.Endpoint("p")
	qEP := hub.Endpoint("q")
	defer pEP.Close()

	clk := sfd.NewRealClock()
	mon := sfd.NewRegistry(clk, sfd.SFDFactory(sfd.Targets{}), sfd.RegistryOptions{MaxSilence: -1, EvictAfter: -1})
	mon.Start()
	defer mon.Stop()
	recv := sfd.NewHeartbeatReceiver(qEP, clk, mon.Observe)
	recv.Start()

	snd := sfd.NewHeartbeatSender(pEP, "q", 5*time.Millisecond, clk)
	snd.Start()
	// Let the detector accumulate real history before judging or
	// crashing — a single-arrival detector has no freshness point yet.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if received, _ := recv.Counters(); received >= 50 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, ok := mon.StatusOf("p", clk.Now())
	if !ok || st != sfd.PeerActive {
		t.Fatalf("live peer status = %v (ok=%v)", st, ok)
	}

	snd.Crash()
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := mon.StatusOf("p", clk.Now()); st >= sfd.PeerSuspected {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st, _ := mon.StatusOf("p", clk.Now()); st < sfd.PeerSuspected {
		t.Fatalf("crashed peer still %v", st)
	}
	qEP.Close()
	recv.Wait()
}

func TestPublicSimClusterAndConsortium(t *testing.T) {
	con := sfd.BuildConsortium(sfd.ConsortiumConfig{
		ServersPerCloud: 1,
		Interval:        100 * msA,
		Factory: func(string) sfd.Detector {
			return sfd.NewChen(30, 100*msA, 300*msA)
		},
		Options: sfd.RegistryOptions{MaxSilence: -1, EvictAfter: -1},
		Seed:    3,
	})
	con.RunFor(10*time.Second, 10*time.Millisecond)
	cl := con.Clouds["GA"]
	if cl == nil {
		t.Fatal("GA cloud missing")
	}
	now := con.Clk.Now()
	snap := cl.Manager.Reg.Snapshot(now)
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	for _, r := range snap {
		if r.Status != sfd.PeerActive {
			t.Fatalf("%s not active: %v", r.Peer, r.Status)
		}
	}
}

func TestPublicSelfTunerGeneralMethod(t *testing.T) {
	ch := sfd.NewChen(50, 100*msA, 2*time.Second)
	tuner := sfd.NewSelfTuner(sfd.TunableChen{Chen: ch}, sfd.TunerOptions{
		SlotHeartbeats: 100,
		Targets:        sfd.Targets{MaxTD: 400 * msA, MaxMR: 10, MinQAP: 0.5},
	})
	for i := 0; i < 2000; i++ {
		send := sfd.Time(i) * sfd.Time(100*msA)
		tuner.Observe(uint64(i), send, send.Add(3*msA))
	}
	if ch.Alpha() >= 2*time.Second {
		t.Fatalf("general method failed to tune Chen: α=%v", ch.Alpha())
	}
}

func TestPublicConfigure(t *testing.T) {
	net := sfd.NetworkStats{
		LossRate:  0.004,
		DelayMean: 140 * time.Millisecond,
		DelayStd:  15 * time.Millisecond,
	}
	cfg, err := sfd.Configure(net, sfd.Requirements{
		MaxTD: time.Second, MaxMR: 0.5, MinQAP: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Interval <= 0 || cfg.PredictedTD > time.Second {
		t.Fatalf("bad configuration: %+v", cfg)
	}
	// Infeasible request surfaces ErrInfeasible.
	_, err = sfd.Configure(net, sfd.Requirements{MaxTD: time.Millisecond, MaxMR: 1e-9, MinQAP: 0.99999})
	if err != sfd.ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestPublicReactorEscalation(t *testing.T) {
	r := sfd.NewReactor()
	var fired []string
	r.On(0.5, "warn", func(peer string, lvl float64, at sfd.Time) { fired = append(fired, "warn") })
	r.On(2.0, "failover", func(peer string, lvl float64, at sfd.Time) { fired = append(fired, "failover") })
	r.Evaluate("db-1", 0.7, 0)
	r.Evaluate("db-1", 3.0, 0)
	if len(fired) != 2 || fired[0] != "warn" || fired[1] != "failover" {
		t.Fatalf("escalation = %v", fired)
	}
}

func TestPublicConsensus(t *testing.T) {
	c := sfd.NewConsensus(sfd.ConsensusOptions{N: 3, Seed: 1})
	c.Propose(0, "x")
	c.Propose(1, "y")
	c.Propose(2, "z")
	if !c.Run(30 * time.Second) {
		t.Fatal("consensus did not terminate")
	}
	v, err := c.Agreement()
	if err != nil || v == "" {
		t.Fatalf("agreement: %q, %v", v, err)
	}
}

func TestPublicVariantDetectorsAndElector(t *testing.T) {
	rto := sfd.NewRTO(0, 0)
	pe := sfd.NewPhiExp(50, 4)
	var last sfd.Time
	for i := 0; i < 100; i++ {
		send := sfd.Time(i) * sfd.Time(100*msA)
		last = send.Add(2 * msA)
		rto.Observe(uint64(i), send, last)
		pe.Observe(uint64(i), send, last)
	}
	if !rto.Suspect(last.Add(time.Minute)) || !pe.Suspect(last.Add(time.Minute)) {
		t.Fatal("variant detectors never suspect")
	}

	mon := sfd.NewRegistry(sfd.NewSimClock(0), func(string) sfd.Detector {
		return sfd.NewChen(20, 100*msA, 100*msA)
	}, sfd.RegistryOptions{MaxSilence: -1, EvictAfter: -1})
	for i := 0; i < 30; i++ {
		send := sfd.Time(i) * sfd.Time(100*msA)
		mon.Observe(sfd.HeartbeatArrival{From: "a", Seq: uint64(i), Send: send, Recv: send.Add(msA)})
	}
	el := sfd.NewElector("self", mon, []string{"a", "self"})
	if l := el.Leader(sfd.Time(29 * 100 * int64(msA)).Add(5 * msA)); l != "a" {
		t.Fatalf("leader = %q, want a", l)
	}
	board := sfd.FormatSnapshot(mon.Snapshot(sfd.Time(3 * int64(time.Second))))
	if board == "" {
		t.Fatal("empty board")
	}
	counts, _ := sfd.SummarizeSnapshot(mon.Snapshot(sfd.Time(2900 * int64(msA))))
	if len(counts) == 0 {
		t.Fatal("empty summary")
	}
}

func TestPublicSimClusterDirect(t *testing.T) {
	sc := sfd.NewSimCluster(sfd.LinkParams{DelayBase: 2 * msA}, 9)
	mon := sc.AddMonitor("q", sfd.SFDFactory(sfd.Targets{}), sfd.RegistryOptions{MaxSilence: -1, EvictAfter: -1})
	sc.AddSender("p", 100*msA, msA, "q")
	if err := mon.Reg.Register("p"); err != nil {
		t.Fatal(err)
	}
	sc.RunFor(10*time.Second, 10*time.Millisecond)
	if st, ok := mon.Reg.StatusOf("p", sc.Clk.Now()); !ok || st != sfd.PeerActive {
		t.Fatalf("sim cluster peer status %v,%v", st, ok)
	}
	sc.Sender("p").Crash()
	if lat, ok := sc.DetectCrash("q", "p", 10*time.Second); !ok || lat <= 0 {
		t.Fatalf("crash detection failed: %v,%v", lat, ok)
	}
}

func TestPublicRegistryLifecycle(t *testing.T) {
	sim := sfd.NewSimClock(0)
	reg := sfd.NewRegistry(sim, func(string) sfd.Detector {
		return sfd.NewFixed(300*msA, 1)
	}, sfd.RegistryOptions{
		WheelTick:    10 * msA,
		OfflineAfter: 500 * msA,
		EvictAfter:   500 * msA,
	})
	reg.Start()
	defer reg.Stop()
	sub := reg.Subscribe(16)
	defer sub.Close()

	// Heartbeat every 100 ms for 2 s, then crash.
	var seq uint64
	for now := sfd.Time(0); now < sfd.Time(2*time.Second); now = now.Add(100 * msA) {
		sim.Advance(100 * msA)
		reg.Observe(sfd.HeartbeatArrival{From: "p", Seq: seq, Send: now, Recv: sim.Now()})
		seq++
	}
	if st, ok := reg.StatusOf("p", sim.Now()); !ok || st != sfd.PeerActive {
		t.Fatalf("live status = %v (ok=%v)", st, ok)
	}
	sim.Advance(3 * time.Second) // silence: suspect → offline → evicted
	want := []sfd.EventType{sfd.EventSuspect, sfd.EventOffline, sfd.EventEvicted}
	for _, w := range want {
		select {
		case ev := <-sub.C():
			if ev.Type != w || ev.Peer != "p" {
				t.Fatalf("event %v, want %v for p", ev, w)
			}
		default:
			t.Fatalf("missing %v event", w)
		}
	}
	if reg.Len() != 0 {
		t.Fatalf("registry holds %d streams after eviction", reg.Len())
	}
	c := reg.Counters()
	if c.Heartbeats != uint64(seq) || c.Evictions != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestPublicDefaultConfigAndWindowSize(t *testing.T) {
	cfg := sfd.DefaultConfig()
	if cfg.WindowSize != sfd.DefaultWindowSize || sfd.DefaultWindowSize != 1000 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestPublicSimClockDeterminism(t *testing.T) {
	clk := sfd.NewSimClock(0)
	fired := false
	clk.AfterFunc(time.Second, func(sfd.Time) { fired = true })
	clk.Advance(999 * time.Millisecond)
	if fired {
		t.Fatal("fired early")
	}
	clk.Advance(time.Millisecond)
	if !fired {
		t.Fatal("did not fire")
	}
}

func TestPublicTopicSubscriptions(t *testing.T) {
	if !sfd.MatchTopic("eu/+/web-1/#", "eu/zrh/web-1/api") {
		t.Fatal("MatchTopic missed an in-subtree name")
	}
	if sfd.MatchTopic("eu/+/web-1/#", "us/iad/web-1/api") {
		t.Fatal("MatchTopic crossed subtrees")
	}
	if err := sfd.ValidateStreamName("a//b"); err == nil {
		t.Fatal("ValidateStreamName accepted an empty segment")
	}
	if err := sfd.ValidateTopicFilter("a/#/b"); err == nil {
		t.Fatal("ValidateTopicFilter accepted a non-final #")
	}

	sim := sfd.NewSimClock(0)
	reg := sfd.NewRegistry(sim, func(string) sfd.Detector {
		return sfd.NewFixed(300*msA, 1)
	}, sfd.RegistryOptions{WheelTick: 10 * msA, OfflineAfter: -1, EvictAfter: -1})
	reg.Start()
	defer reg.Stop()

	sub, err := reg.SubscribeTopic("eu/#", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := reg.SubscribeTopic("eu//bad", 16); err == nil {
		t.Fatal("SubscribeTopic accepted an invalid filter")
	}

	// Two peers heartbeat, then go silent: only the eu one is routed.
	for i := 0; i < 3; i++ {
		for _, p := range []string{"eu/zrh/web-1", "us/iad/web-9"} {
			reg.Observe(sfd.HeartbeatArrival{From: p, Seq: uint64(i), Send: sim.Now(), Recv: sim.Now()})
		}
		sim.Advance(100 * msA)
	}
	sim.Advance(time.Second)

	select {
	case ev := <-sub.C():
		if ev.Type != sfd.EventSuspect || ev.Peer != "eu/zrh/web-1" {
			t.Fatalf("routed event = %v", ev)
		}
	default:
		t.Fatal("topic subscription missed its suspect event")
	}
	select {
	case ev := <-sub.C():
		t.Fatalf("out-of-subtree event leaked: %v", ev)
	default:
	}

	var st sfd.FanoutStats = reg.Bus().FanoutStats()
	if st.Subscriptions != 1 || st.Matches != 1 {
		t.Fatalf("fanout stats = %+v", st)
	}
	var ss []sfd.SubscriptionStats = reg.Bus().SubscriptionStats()
	if len(ss) != 1 || ss[0].Filter != "eu/#" || ss[0].Delivered != 1 {
		t.Fatalf("subscription stats = %+v", ss)
	}
}
