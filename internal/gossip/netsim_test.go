package gossip

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/wire"
)

// The acceptance scenario from the issue: three monitors watch the same
// 100 heartbeat streams over netsim. One monitor is partitioned away from
// every subject — it locally declares the whole fleet offline, but quorum
// corroboration must suppress every global verdict, because the other two
// monitors still hear the heartbeats. After the partition heals, a
// genuinely crashed process must be globally declared offline on every
// monitor within 2× its local detection time, and a restart with a bumped
// incarnation must return it to trusted fleet-wide. Everything runs on
// one clock.Sim, so the run is deterministic.

const (
	simSubjects     = 100
	simBeatInterval = 100 * clock.Millisecond
	simOfflineAfter = 300 * clock.Millisecond
)

// simMonitor is one monitor host: a netsim node carrying both heartbeat
// and gossip traffic, a registry, and a gossiper.
type simMonitor struct {
	name string
	node *netsim.Node
	reg  *registry.Registry
	g    *Gossiper
	sub  *registry.Subscription
}

// pump drains the node's inbox every 5 ms, routing by magic bytes —
// the same shared-socket discrimination sfdmon uses.
func (m *simMonitor) pump(sim *clock.Sim) {
	sim.AfterFunc(5*clock.Millisecond, func(now clock.Time) {
		for _, in := range m.node.Drain() {
			if msg, err := heartbeat.Unmarshal(in.Payload); err == nil {
				if msg.Kind == heartbeat.KindHeartbeat {
					m.reg.Observe(heartbeat.Arrival{
						From: in.From, Seq: msg.Seq, Send: msg.Time, Recv: in.At, Inc: msg.Inc,
					})
				}
				continue
			}
			m.g.HandleDatagram(in.Payload)
		}
		m.pump(sim)
	})
}

// subjectProc is one monitored process: an AfterFunc loop heartbeating to
// every monitor. alive/inc/seq are only touched between Advance calls or
// inside sim callbacks, so the run stays single-threaded.
type subjectProc struct {
	node     *netsim.Node
	monitors []string
	alive    bool
	inc      uint64
	seq      uint64
}

func (p *subjectProc) loop(sim *clock.Sim) {
	sim.AfterFunc(simBeatInterval, func(now clock.Time) {
		if p.alive {
			p.seq++
			b := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: p.seq, Time: now, Inc: p.inc}.Marshal()
			for _, m := range p.monitors {
				_ = p.node.Send(m, b)
			}
		}
		p.loop(sim)
	})
}

func TestNetsimPartitionQuorumAndRecovery(t *testing.T) {
	sim := clock.NewSim(0)
	net := netsim.New(sim, netsim.LinkParams{
		DelayBase:  5 * clock.Millisecond,
		JitterMean: 1 * clock.Millisecond,
		JitterStd:  1 * clock.Millisecond,
	}, 42)

	monNames := []string{"monA", "monB", "monC"}
	monitors := make([]*simMonitor, 0, len(monNames))
	for i, name := range monNames {
		reg := registry.New(sim,
			func(string) detector.Detector {
				return detector.NewChen(16, simBeatInterval, 200*clock.Millisecond)
			},
			registry.Options{
				WheelTick:    10 * clock.Millisecond,
				OfflineAfter: simOfflineAfter,
				MaxSilence:   2 * clock.Second,
				EvictAfter:   -1,
			})
		reg.Start()
		node := net.AddNode(name, 4096)
		peers := make([]string, 0, 2)
		for _, p := range monNames {
			if p != name {
				peers = append(peers, p)
			}
		}
		g := New(node, sim, reg, peers, Options{
			Interval:   150 * clock.Millisecond,
			Quorum:     2,
			Seed:       int64(i + 1),
			OpinionTTL: 10 * clock.Second,
		})
		g.Start()
		m := &simMonitor{name: name, node: node, reg: reg, g: g, sub: reg.Subscribe(1 << 15)}
		m.pump(sim)
		monitors = append(monitors, m)
	}

	subjects := make([]*subjectProc, simSubjects)
	subjNames := make([]string, simSubjects)
	for i := range subjects {
		name := fmt.Sprintf("s%03d", i)
		subjNames[i] = name
		p := &subjectProc{node: net.AddNode(name, 16), monitors: monNames, alive: true}
		// Stagger start so 100 first beats do not land on one instant.
		sim.AfterFunc(clock.Duration(i)*clock.Millisecond, func(clock.Time) { p.loop(sim) })
		subjects[i] = p
	}

	assertNoGlobal := func(phase string) {
		t.Helper()
		for _, m := range monitors {
			if ge := globalEvents(drain(m.sub)); len(ge) != 0 {
				t.Fatalf("%s: %s published global events: %+v", phase, m.name, ge[:min(len(ge), 4)])
			}
		}
	}

	// Phase 1 — warmup: everything trusted everywhere.
	sim.Advance(5 * clock.Second)
	for _, m := range monitors {
		if n := m.reg.Len(); n != simSubjects {
			t.Fatalf("warmup: %s tracks %d streams, want %d", m.name, n, simSubjects)
		}
	}
	assertNoGlobal("warmup")

	// Phase 2 — partition all subjects away from monC. monC locally
	// offlines the entire fleet; with quorum 2 and monA+monB still
	// hearing heartbeats, not a single global verdict may fire.
	for _, s := range subjNames {
		net.Partition(s, "monC")
	}
	sim.Advance(5 * clock.Second)
	monC := monitors[2]
	if got := monC.reg.Counters().Offlines; got != simSubjects {
		t.Fatalf("partition: monC local offlines = %d, want %d", got, simSubjects)
	}
	for _, m := range monitors {
		if c := m.g.Counters(); c.DigestsReceived == 0 {
			t.Fatalf("partition: %s received no digests — gossip not flowing", m.name)
		}
	}
	assertNoGlobal("partition")

	// Phase 3 — heal. monC recovers every stream; its ~100 mistaken
	// suspicions crush its self-reported weight to the floor (Impact-FD
	// behaviour), while the verdict table stays clean.
	for _, s := range subjNames {
		net.Heal(s, "monC")
	}
	sim.Advance(3 * clock.Second)
	if got := monC.reg.Counters().Trusts; got < simSubjects {
		t.Fatalf("heal: monC recovered only %d streams", got)
	}
	if w, floor := monC.g.Weight(), monC.g.Options().WeightFloor; w != floor {
		t.Fatalf("heal: monC weight = %v, want the %v floor after ~100 mistakes", w, floor)
	}
	assertNoGlobal("heal")

	// Phase 4 — a genuine crash. Every monitor must locally detect it AND
	// publish a corroborated GlobalOffline within 2× its local detection
	// time (gossip adds at most an interval + a link delay on top).
	const victim = "s007"
	subjects[7].alive = false
	crashAt := sim.Now()
	sim.Advance(3 * clock.Second)
	for _, m := range monitors {
		evs := drain(m.sub)
		var localOff, globalOff *registry.Event
		for i := range evs {
			ev := evs[i]
			if ev.Peer != victim {
				if ge := globalEvents([]registry.Event{ev}); len(ge) != 0 {
					t.Fatalf("crash: %s global event for innocent subject: %+v", m.name, ev)
				}
				continue
			}
			switch ev.Type {
			case registry.EventOffline:
				localOff = &evs[i]
			case registry.EventGlobalOffline:
				globalOff = &evs[i]
			}
		}
		if localOff == nil {
			t.Fatalf("crash: %s never locally offlined %s", m.name, victim)
		}
		if globalOff == nil {
			t.Fatalf("crash: %s never published GlobalOffline for %s", m.name, victim)
		}
		localD := localOff.At.Sub(crashAt)
		globalD := globalOff.At.Sub(crashAt)
		if globalD > 2*localD {
			t.Fatalf("crash: %s global detection %v exceeds 2× local %v", m.name, globalD, localD)
		}
		if v := m.g.VerdictOf(victim); v != StateOffline {
			t.Fatalf("crash: %s verdict = %v, want offline", m.name, v)
		}
	}

	// Phase 5 — restart with a bumped incarnation: sequence numbers start
	// over, and every monitor must recant back to trusted.
	subjects[7].alive = true
	subjects[7].inc = 1
	subjects[7].seq = 0
	sim.Advance(3 * clock.Second)
	for _, m := range monitors {
		if v := m.g.VerdictOf(victim); v != StateTrusted {
			t.Fatalf("restart: %s verdict = %v, want trusted", m.name, v)
		}
		if inc, ok := m.reg.IncarnationOf(victim); !ok || inc != 1 {
			t.Fatalf("restart: %s incarnation = %d/%v, want 1", m.name, inc, ok)
		}
		evs := drain(m.sub)
		trusts := eventsOfType(evs, registry.EventGlobalTrust)
		found := false
		for _, ev := range trusts {
			if ev.Peer == victim && ev.Incarnation == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("restart: %s published no GlobalTrust@inc1 for %s (events: %+v)", m.name, victim, trusts)
		}
	}

	// The same seed must reproduce the same traffic: a coarse determinism
	// canary that catches unordered-map iteration sneaking into the path.
	delivered, dropped := net.Stats()
	if delivered == 0 || dropped == 0 {
		t.Fatalf("implausible traffic stats: delivered %d dropped %d", delivered, dropped)
	}
}

// TestDigestsFitDatagramsWithLongSubjects is the byte-budget regression:
// the gossiper used to cut digests at MaxDigestEntries by count only, and
// an entry is 19 B + subject, so 1024 suspected 100-byte subjects made
// one ~120 KB datagram — above UDP's 65 507-byte ceiling, where a real
// socket fails the send (and netsim now does too). Every datagram must
// fit wire.MaxDatagram, every send must succeed, and the union of the
// digests must carry each subject exactly once.
func TestDigestsFitDatagramsWithLongSubjects(t *testing.T) {
	sim := clock.NewSim(0)
	net := netsim.New(sim, netsim.LinkParams{DelayBase: clock.Millisecond}, 1)
	reg := registry.New(sim,
		func(string) detector.Detector { return detector.NewFixed(300*clock.Millisecond, 0) },
		registry.Options{WheelTick: 10 * clock.Millisecond, MaxSilence: -1, EvictAfter: -1})
	reg.Start()
	defer reg.Stop()
	node, peer := net.AddNode("mon-a", 16), net.AddNode("mon-b", 4096)
	g := New(node, sim, reg, []string{"mon-b"}, Options{Fanout: 1})
	defer g.Stop()

	want := make(map[string]int, MaxDigestEntries)
	for i := 0; i < MaxDigestEntries; i++ {
		subj := fmt.Sprintf("%s-%04d", strings.Repeat("s", 95), i)
		want[subj] = 0
		beat(reg, sim, subj, 1, 0)
	}
	sim.Advance(clock.Second) // every subject misses its freshness point
	g.Round(sim.Now())
	sim.Advance(clock.Second)

	if c := g.Counters(); c.SendErrors != 0 || c.DigestsSent < 2 {
		t.Fatalf("send errors = %d, digests sent = %d; want 0 and a chunked round", c.SendErrors, c.DigestsSent)
	}
	if _, dropped := net.Stats(); dropped != 0 {
		t.Fatalf("netsim dropped %d datagrams", dropped)
	}
	for _, in := range peer.Drain() {
		if len(in.Payload) > wire.MaxDatagram {
			t.Fatalf("%d-byte digest exceeds wire.MaxDatagram", len(in.Payload))
		}
		d, err := UnmarshalDigest(in.Payload)
		if err != nil {
			t.Fatalf("digest does not decode: %v", err)
		}
		for _, e := range d.Entries {
			if e.State != StateSuspect {
				t.Fatalf("%s gossiped as %v, want suspect", e.Subject, e.State)
			}
			want[e.Subject]++
		}
	}
	for subj, n := range want {
		if n != 1 {
			t.Fatalf("subject %s carried %d times, want exactly once", subj, n)
		}
	}
}

// TestRoundCountsSendErrors: a send the endpoint refuses is counted, not
// discarded (here: an unknown peer address).
func TestRoundCountsSendErrors(t *testing.T) {
	sim := clock.NewSim(0)
	net := netsim.New(sim, netsim.DefaultLink(), 1)
	reg := registry.New(sim,
		func(string) detector.Detector { return detector.NewFixed(300*clock.Millisecond, 0) },
		registry.Options{WheelTick: 10 * clock.Millisecond, MaxSilence: -1, EvictAfter: -1})
	reg.Start()
	defer reg.Stop()
	g := New(net.AddNode("mon-a", 16), sim, reg, []string{"nowhere"}, Options{})
	defer g.Stop()

	beat(reg, sim, "s1", 1, 0)
	sim.Advance(clock.Second)
	g.Round(sim.Now())
	if c := g.Counters(); c.SendErrors != 1 || c.DigestsSent != 0 {
		t.Fatalf("send errors = %d, digests sent = %d; want 1 and 0", c.SendErrors, c.DigestsSent)
	}
}
