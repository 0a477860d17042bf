package chaos

// The QoS-bounded acceptance scenarios from the issue: the self-tuning
// contract the paper claims (§IV-A feedback loop, §V's misbehaving
// networks) must hold over the *live* stack — real transport path,
// registry, gossip — while this package injects the misbehavior. Every
// run is driven by one clock.Sim and a lossless synchronous Hub, with
// all randomness seeded, so the scenarios are deterministic: a failure
// reproduces byte-for-byte.

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/gossip"
	"repro/internal/heartbeat"
	"repro/internal/registry"
	"repro/internal/transport"
)

// acceptInterval is the heartbeat period of the acceptance scenarios.
const acceptInterval = 10 * clock.Millisecond

// observeInto decodes heartbeat datagrams queued on recv into the
// registry, stamping arrival with the sim's current instant.
func observeInto(reg *registry.Registry, sim *clock.Sim, recv <-chan transport.Inbound) {
	for {
		select {
		case in, ok := <-recv:
			if !ok {
				return
			}
			msg, err := heartbeat.Unmarshal(in.Payload)
			if err != nil || msg.Kind != heartbeat.KindHeartbeat {
				continue
			}
			reg.Observe(heartbeat.Arrival{
				From: in.From, Seq: msg.Seq, Send: msg.Time, Recv: sim.Now(), Inc: msg.Inc,
			})
		default:
			return
		}
	}
}

// margins reads the peer's self-tuning detector under the shard lock.
func sfdOf(t *testing.T, reg *registry.Registry, peer string) (margin clock.Duration, state core.State, history []core.Adjustment) {
	t.Helper()
	ok := reg.Inspect(peer, func(det detector.Detector) {
		s, isSFD := det.(*core.SFD)
		if !isSFD {
			t.Fatalf("detector for %s is %T, want *core.SFD", peer, det)
		}
		margin, state = s.Margin(), s.State()
		history = append(history, s.History()...)
	})
	if !ok {
		t.Fatalf("peer %s not tracked", peer)
	}
	return margin, state, history
}

// TestAcceptLossBurstMarginReconverges asserts the paper's headline
// behavior end to end: during a Gilbert–Elliott loss burst the safety
// margin SM widens (accuracy feedback, Sat=+β), and after the network
// heals the widened margin violates the detection-time target, so the
// loop shrinks it back (Sat=−β) and re-stabilizes within a bounded
// number of slots.
func TestAcceptLossBurstMarginReconverges(t *testing.T) {
	sim := clock.NewSim(0)
	hub := transport.NewHub(0, 0, 1)
	ctl := NewController(sim, 99)
	sender := Wrap(hub.Endpoint("proc-1"), ctl) // outbound chaos on the sender
	mon := hub.Endpoint("monitor")
	defer sender.Close()
	defer mon.Close()

	cfg := core.Config{
		WindowSize:     64,
		Interval:       acceptInterval,
		InitialMargin:  30 * clock.Millisecond,
		Alpha:          20 * clock.Millisecond,
		Beta:           0.5, // margin moves ±10 ms per adjusted slot
		SlotHeartbeats: 50,  // ≈ one slot per 500 ms of healthy traffic
		Targets: core.Targets{
			MaxTD:  60 * clock.Millisecond,
			MaxMR:  0.2, // mistakes/s
			MinQAP: 0.99,
		},
		FillGaps:   true,
		MaxGapFill: 8,
		HistoryCap: 64, // 30 s at 100 Hz is 60 slots, and the test reads them all
	}
	reg := registry.New(sim,
		func(string) detector.Detector { return core.New(cfg) },
		registry.Options{WheelTick: 10 * clock.Millisecond, OfflineAfter: clock.Second, EvictAfter: -1})
	reg.Start()
	defer reg.Stop()

	var seq uint64
	var emit func(clock.Time)
	emit = func(now clock.Time) {
		seq++
		b := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: seq, Time: now, Inc: 1}.Marshal()
		_ = sender.Send("monitor", b)
		observeInto(reg, sim, mon.Recv())
		sim.AfterFunc(acceptInterval, emit)
	}
	sim.AfterFunc(acceptInterval, emit)

	// Phase 1 — healthy warm-up: the margin must hold at SM₁ (stable).
	sim.Advance(5 * clock.Second)
	baseline, state, _ := sfdOf(t, reg, "proc-1")
	if state != core.StateStable {
		t.Fatalf("after warm-up: state %v, want stable", state)
	}
	if baseline != cfg.InitialMargin {
		t.Fatalf("baseline margin %v, want %v", baseline, cfg.InitialMargin)
	}

	// Phase 2 — burst: 55% loss in mean runs of 8 heartbeats. Runs of
	// ≥ 4 lost heartbeats push the next arrival past fp = EA+SM, so
	// mistakes accumulate and accuracy feedback must widen SM.
	lossID, err := ctl.Arm(Impairment{Kind: KindLoss, Rate: 0.55, Burst: 8})
	if err != nil {
		t.Fatal(err)
	}
	peak := baseline
	for i := 0; i < 100; i++ {
		sim.Advance(100 * clock.Millisecond)
		if m, _, _ := sfdOf(t, reg, "proc-1"); m > peak {
			peak = m
		}
	}
	if peak <= baseline {
		t.Fatalf("margin never widened during the loss burst: peak %v ≤ baseline %v", peak, baseline)
	}
	if ctl.Counters().LossDrops == 0 {
		t.Fatal("loss impairment armed but nothing dropped")
	}

	// Phase 3 — heal. The widened margin now makes TD = Δt+SM exceed
	// MaxTD with accuracy restored, so the loop must shrink SM until the
	// target box is re-entered, and stay there.
	ctl.Disarm(lossID)
	healSlots := func() int {
		_, _, h := sfdOf(t, reg, "proc-1")
		return len(h)
	}()
	sim.Advance(15 * clock.Second)
	final, state, hist := sfdOf(t, reg, "proc-1")
	if state != core.StateStable {
		t.Fatalf("after heal: state %v (margin %v), want stable", state, final)
	}
	if final >= peak {
		t.Fatalf("margin did not re-converge: final %v ≥ peak %v", final, peak)
	}
	// TD target re-satisfied: SM ≤ MaxTD − Δt.
	if final > cfg.Targets.MaxTD-acceptInterval {
		t.Fatalf("final margin %v still violates MaxTD %v at Δt %v", final, cfg.Targets.MaxTD, acceptInterval)
	}
	// Bounded re-convergence: stable verdict within 10 slots of heal.
	reconverged := -1
	for i := healSlots; i < len(hist); i++ {
		if hist[i].Verdict == core.VerdictStable {
			reconverged = i - healSlots
			break
		}
	}
	if reconverged < 0 || reconverged > 10 {
		t.Fatalf("no stable verdict within 10 slots of heal (got %d; %d post-heal slots)", reconverged, len(hist)-healSlots)
	}
	t.Logf("margin %v → peak %v → final %v; stable %d slots after heal; %d heartbeats dropped",
		time.Duration(baseline), time.Duration(peak), time.Duration(final),
		reconverged, ctl.Counters().LossDrops)
}

// TestAcceptDuplicationReorderQAPFloor asserts the accuracy floor under
// duplication and reordering: the registry's incarnation/sequence stale
// filter must absorb both impairments before they reach the detector, so
// QAP never leaves the target box and the margin never moves.
func TestAcceptDuplicationReorderQAPFloor(t *testing.T) {
	sim := clock.NewSim(0)
	hub := transport.NewHub(0, 0, 1)
	ctl := NewController(sim, 17)
	sender := hub.Endpoint("proc-1")
	monRaw := hub.Endpoint("monitor")
	mon := Wrap(monRaw, ctl) // inbound chaos on the monitor
	defer sender.Close()
	defer mon.Close()

	cfg := core.Config{
		WindowSize:     64,
		Interval:       acceptInterval,
		InitialMargin:  30 * clock.Millisecond,
		Alpha:          20 * clock.Millisecond,
		Beta:           0.5,
		SlotHeartbeats: 50,
		Targets: core.Targets{
			MaxTD:  60 * clock.Millisecond,
			MaxMR:  0.2,
			MinQAP: 0.99,
		},
		FillGaps:   true,
		MaxGapFill: 8,
	}
	reg := registry.New(sim,
		func(string) detector.Detector { return core.New(cfg) },
		registry.Options{WheelTick: 10 * clock.Millisecond, OfflineAfter: clock.Second, EvictAfter: -1})
	reg.Start()
	defer reg.Stop()

	var seq uint64
	var emit func(clock.Time)
	emit = func(now clock.Time) {
		seq++
		b := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: seq, Time: now, Inc: 1}.Marshal()
		_ = sender.Send("monitor", b)
		// Route the raw hub deliveries through the impairment path, then
		// feed survivors (and injected duplicates) to the registry.
		for _, in := range drain(monRaw.Recv()) {
			mon.Process(in)
		}
		observeInto(reg, sim, mon.Recv())
		sim.AfterFunc(acceptInterval, emit)
	}
	sim.AfterFunc(acceptInterval, emit)

	sim.Advance(2 * clock.Second) // warm up clean
	if _, err := ctl.Arm(Impairment{Kind: KindDuplicate, Rate: 0.3, Delay: Span(5 * clock.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Arm(Impairment{Kind: KindReorder, Rate: 0.2, Delay: Span(25 * clock.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	sim.Advance(20 * clock.Second)

	c := ctl.Counters()
	if c.Duplicated == 0 || c.Reordered == 0 {
		t.Fatalf("impairments idle: %+v", c)
	}
	margin, state, hist := sfdOf(t, reg, "proc-1")
	if state != core.StateStable {
		t.Fatalf("state %v, want stable under dup/reorder", state)
	}
	if margin != cfg.InitialMargin {
		t.Fatalf("margin moved to %v under dup/reorder; stale filter leaked", margin)
	}
	if len(hist) == 0 {
		t.Fatal("no slots evaluated")
	}
	minQAP, maxMR := 1.0, 0.0
	for _, adj := range hist {
		if adj.Measured.QAP < cfg.Targets.MinQAP {
			t.Fatalf("slot %d QAP %.4f below floor %.4f", adj.Slot, adj.Measured.QAP, cfg.Targets.MinQAP)
		}
		if adj.Measured.MR > cfg.Targets.MaxMR {
			t.Fatalf("slot %d MR %.3f above cap %.3f", adj.Slot, adj.Measured.MR, cfg.Targets.MaxMR)
		}
		if adj.Measured.QAP < minQAP {
			minQAP = adj.Measured.QAP
		}
		if adj.Measured.MR > maxMR {
			maxMR = adj.Measured.MR
		}
	}
	// The impairments really hit the registry: duplicates and late
	// reordered originals must show up as stale observations.
	st, ok := reg.Stats("proc-1")
	if !ok || st.Stale == 0 {
		t.Fatalf("stale filter saw nothing (stats %+v) — impairment path bypassed?", st)
	}
	t.Logf("%d slots: worst QAP %.4f, worst MR %.3f/s; %d duplicated + %d reordered absorbed (%d stale)",
		len(hist), minQAP, maxMR, c.Duplicated, c.Reordered, st.Stale)
}

// TestAcceptOneSidedPartitionNoGlobalOffline asserts the quorum
// contract under a directional partition: one monitor losing *inbound*
// heartbeats declares the fleet offline locally, but with the other two
// monitors still hearing every subject, no global-offline verdict may
// fire anywhere; after the heal the partitioned monitor must trust the
// subjects again. The partition is armed through a Scenario, which also
// exercises Play under the simulated clock.
func TestAcceptOneSidedPartitionNoGlobalOffline(t *testing.T) {
	const (
		beat         = 100 * clock.Millisecond
		offlineAfter = 300 * clock.Millisecond
	)
	sim := clock.NewSim(0)
	hub := transport.NewHub(0, 0, 1)
	ctl := NewController(sim, 31)

	monNames := []string{"monA", "monB", "monC"}
	subjects := []string{"s1", "s2", "s3"}

	type monitor struct {
		name string
		ep   transport.Endpoint
		raw  *transport.MemEndpoint
		ch   *Endpoint // non-nil on the impaired monitor
		reg  *registry.Registry
		g    *gossip.Gossiper
		sub  *registry.Subscription
	}
	mons := make([]*monitor, 0, len(monNames))
	for i, name := range monNames {
		m := &monitor{name: name, raw: hub.Endpoint(name)}
		m.ep = m.raw
		if name == "monA" {
			m.ch = Wrap(m.raw, ctl)
			m.ep = m.ch
		}
		m.reg = registry.New(sim,
			func(string) detector.Detector { return detector.NewChen(16, beat, 200*clock.Millisecond) },
			registry.Options{WheelTick: 10 * clock.Millisecond, OfflineAfter: offlineAfter, MaxSilence: 2 * clock.Second, EvictAfter: -1})
		m.reg.Start()
		peers := make([]string, 0, 2)
		for _, p := range monNames {
			if p != name {
				peers = append(peers, p)
			}
		}
		m.g = gossip.New(m.ep, sim, m.reg, peers, gossip.Options{
			Interval: 150 * clock.Millisecond,
			Quorum:   2,
			Seed:     int64(i + 1),
		})
		m.g.Start()
		m.sub = m.reg.Subscribe(1 << 15)
		mons = append(mons, m)
	}
	defer func() {
		for _, m := range mons {
			m.g.Stop()
			m.reg.Stop()
			_ = m.ep.Close()
		}
	}()

	// Monitor pumps: drain the hub endpoint every 5 ms, monA routing
	// through the impairment path first, and discriminate heartbeat vs
	// gossip datagrams by magic — the sfdmon shared-socket pattern.
	for _, m := range mons {
		m := m
		var pump func(clock.Time)
		pump = func(clock.Time) {
			ins := drain(m.raw.Recv())
			if m.ch != nil {
				for _, in := range ins {
					m.ch.Process(in)
				}
				ins = drain(m.ch.Recv())
			}
			for _, in := range ins {
				if msg, err := heartbeat.Unmarshal(in.Payload); err == nil {
					if msg.Kind == heartbeat.KindHeartbeat {
						m.reg.Observe(heartbeat.Arrival{
							From: in.From, Seq: msg.Seq, Send: msg.Time, Recv: sim.Now(), Inc: msg.Inc,
						})
					}
					continue
				}
				m.g.HandleDatagram(in.Payload)
			}
			sim.AfterFunc(5*clock.Millisecond, pump)
		}
		sim.AfterFunc(5*clock.Millisecond, pump)
	}

	// Subjects heartbeat to every monitor.
	for _, s := range subjects {
		s := s
		ep := hub.Endpoint(s)
		defer ep.Close()
		var seq uint64
		var emit func(clock.Time)
		emit = func(now clock.Time) {
			seq++
			b := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: seq, Time: now, Inc: 1}.Marshal()
			for _, m := range monNames {
				_ = ep.Send(m, b)
			}
			sim.AfterFunc(beat, emit)
		}
		sim.AfterFunc(beat, emit)
	}

	// Scenario: silence the subjects' heartbeats into monA (inbound,
	// subjects only — gossip from monB/monC still flows) for 4 s.
	sc := Scenario{
		Name: "one-sided-partition",
		Seed: 31,
		Steps: []Step{{
			At:       Span(3 * clock.Second),
			Duration: Span(4 * clock.Second),
			Impairment: Impairment{
				Kind: KindPartition, Direction: DirIn, Peers: subjects,
			},
		}},
	}
	if err := ctl.Play(sc); err != nil {
		t.Fatal(err)
	}
	sim.Advance(12 * clock.Second)

	if ctl.Counters().PartDrops == 0 {
		t.Fatal("partition never dropped a heartbeat")
	}
	if n := len(ctl.Active()); n != 0 {
		t.Fatalf("%d impairments still armed after the scenario window", n)
	}

	type tally struct{ offline, globalOffline, lateTrust int }
	tallies := make(map[string]*tally)
	for _, m := range mons {
		tl := &tally{}
		tallies[m.name] = tl
		for {
			var done bool
			select {
			case ev := <-m.sub.C():
				switch ev.Type {
				case registry.EventOffline:
					tl.offline++
				case registry.EventGlobalOffline:
					tl.globalOffline++
				case registry.EventTrust:
					// The heal fires at exactly t=7s, and the first
					// post-heal heartbeat can land in the same instant.
					if ev.At >= clock.Time(7*clock.Second) {
						tl.lateTrust++
					}
				}
			default:
				done = true
			}
			if done {
				break
			}
		}
	}
	// The quorum rule is the whole point: one partitioned monitor's
	// opinion must never become a fleet verdict.
	for name, tl := range tallies {
		if tl.globalOffline != 0 {
			t.Fatalf("%s saw %d global-offline verdicts during a one-sided partition", name, tl.globalOffline)
		}
	}
	if tallies["monA"].offline == 0 {
		t.Fatal("monA never locally declared a subject offline — partition ineffective")
	}
	if tallies["monA"].lateTrust < len(subjects) {
		t.Fatalf("monA re-trusted %d subjects after heal, want ≥ %d", tallies["monA"].lateTrust, len(subjects))
	}
	if tallies["monB"].offline != 0 || tallies["monC"].offline != 0 {
		t.Fatalf("unimpaired monitors declared offlines: B=%d C=%d",
			tallies["monB"].offline, tallies["monC"].offline)
	}
	t.Logf("monA local offlines %d, global-offline verdicts 0 on all monitors, post-heal trusts %d; %d datagrams blackholed",
		tallies["monA"].offline, tallies["monA"].lateTrust, ctl.Counters().PartDrops)
}
