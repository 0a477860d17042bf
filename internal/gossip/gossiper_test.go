package gossip

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/registry"
	"repro/internal/transport"
)

// stubEP captures sends without a network.
type stubEP struct {
	addr string
	mu   sync.Mutex
	sent []stubSend
}

type stubSend struct {
	to      string
	payload []byte
}

func (s *stubEP) Send(to string, payload []byte) error {
	s.mu.Lock()
	s.sent = append(s.sent, stubSend{to: to, payload: append([]byte(nil), payload...)})
	s.mu.Unlock()
	return nil
}

func (s *stubEP) Addr() string { return s.addr }

func (s *stubEP) take() []stubSend {
	s.mu.Lock()
	out := s.sent
	s.sent = nil
	s.mu.Unlock()
	return out
}

// newTestRig builds a sim-clock registry plus a gossiper named mon-a with
// peers mon-b and mon-c. The registry's wheel runs off sim.Advance; the
// gossiper is NOT started — tests step Round by hand.
func newTestRig(t *testing.T, opts Options) (*clock.Sim, *registry.Registry, *Gossiper, *stubEP, *registry.Subscription) {
	t.Helper()
	sim := clock.NewSim(0)
	reg := registry.New(sim,
		func(string) detector.Detector { return detector.NewFixed(300*clock.Millisecond, 0) },
		registry.Options{
			WheelTick:    10 * clock.Millisecond,
			OfflineAfter: 300 * clock.Millisecond,
			MaxSilence:   2 * clock.Second,
			EvictAfter:   -1,
		})
	reg.Start()
	sub := reg.Subscribe(1024)
	ep := &stubEP{addr: "mon-a"}
	g := New(ep, sim, reg, []string{"mon-b", "mon-c"}, opts)
	t.Cleanup(func() { g.Stop(); reg.Stop() })
	return sim, reg, g, ep, sub
}

func beat(reg *registry.Registry, sim *clock.Sim, subj string, seq, inc uint64) {
	reg.Observe(heartbeat.Arrival{From: subj, Seq: seq, Send: sim.Now(), Recv: sim.Now(), Inc: inc})
}

func drain(sub *registry.Subscription) []registry.Event {
	var out []registry.Event
	for {
		select {
		case ev := <-sub.C():
			out = append(out, ev)
		default:
			return out
		}
	}
}

func eventsOfType(evs []registry.Event, t registry.EventType) []registry.Event {
	var out []registry.Event
	for _, ev := range evs {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

func globalEvents(evs []registry.Event) []registry.Event {
	var out []registry.Event
	for _, ev := range evs {
		switch ev.Type {
		case registry.EventGlobalSuspect, registry.EventGlobalOffline, registry.EventGlobalTrust:
			out = append(out, ev)
		}
	}
	return out
}

func TestQuorumCorroborationAndIncarnationRefutation(t *testing.T) {
	sim, reg, g, _, sub := newTestRig(t, Options{Quorum: 2, Seed: 7})

	for i := uint64(1); i <= 3; i++ {
		beat(reg, sim, "s1", i, 0)
		sim.Advance(100 * clock.Millisecond)
	}
	// Silence: the local registry suspects then offlines s1.
	sim.Advance(1 * clock.Second)
	g.Round(sim.Now())

	if got := g.VerdictOf("s1"); got != StateTrusted {
		t.Fatalf("one monitor's opinion reached a verdict: %v (quorum is 2)", got)
	}
	evs := drain(sub)
	if len(eventsOfType(evs, registry.EventOffline)) != 1 {
		t.Fatalf("expected a local offline event, got %+v", evs)
	}
	if ge := globalEvents(evs); len(ge) != 0 {
		t.Fatalf("global events without quorum: %+v", ge)
	}

	// A second monitor corroborates: quorum 2 met, mass 1+1 >= 1.5.
	g.HandleDatagram(Digest{Monitor: "mon-b", Weight: 1, Seq: 1, Entries: []Opinion{
		{Subject: "s1", State: StateOffline, Inc: 0, Level: 3},
	}}.Marshal())

	if got := g.VerdictOf("s1"); got != StateOffline {
		t.Fatalf("verdict after corroboration = %v, want offline", got)
	}
	ge := globalEvents(drain(sub))
	if len(ge) != 1 || ge[0].Type != registry.EventGlobalOffline {
		t.Fatalf("want exactly one GlobalOffline, got %+v", ge)
	}
	if ge[0].Peer != "s1" || ge[0].Source() != "mon-a" || ge[0].Incarnation != 0 {
		t.Fatalf("bad GlobalOffline event: %+v", ge[0])
	}
	if c := g.Counters(); c.GlobalOfflines != 1 || c.OpenVerdicts != 1 {
		t.Fatalf("counters after verdict: %+v", c)
	}

	// The process restarts with a bumped incarnation: its first heartbeat
	// refutes every opinion about its previous life, including mon-b's.
	beat(reg, sim, "s1", 0, 1)
	g.Round(sim.Now())

	if got := g.VerdictOf("s1"); got != StateTrusted {
		t.Fatalf("verdict after incarnation bump = %v, want trusted", got)
	}
	evs = drain(sub)
	ge = globalEvents(evs)
	if len(ge) != 1 || ge[0].Type != registry.EventGlobalTrust {
		t.Fatalf("want exactly one GlobalTrust, got %+v", ge)
	}
	if ge[0].Incarnation != 1 {
		t.Fatalf("GlobalTrust incarnation = %d, want 1", ge[0].Incarnation)
	}
}

func TestWeightedMassSuppression(t *testing.T) {
	_, _, g, _, sub := newTestRig(t, Options{Quorum: 2, Seed: 7})

	// Two mistake-prone monitors (weights clamp to the 0.25 floor) agree
	// on offline. Quorum count is met but mass 0.5 < MinMass 1.5: the
	// accusation needs better-reputed corroboration.
	g.HandleDatagram(Digest{Monitor: "mon-b", Weight: 0.01, Seq: 1, Entries: []Opinion{
		{Subject: "x", State: StateOffline},
	}}.Marshal())
	g.HandleDatagram(Digest{Monitor: "mon-c", Weight: math.NaN(), Seq: 1, Entries: []Opinion{
		{Subject: "x", State: StateOffline},
	}}.Marshal())

	if got := g.VerdictOf("x"); got != StateTrusted {
		t.Fatalf("low-mass quorum reached a verdict: %v", got)
	}
	if ge := globalEvents(drain(sub)); len(ge) != 0 {
		t.Fatalf("global events despite low mass: %+v", ge)
	}

	// The same monitors regain accuracy: fresh digests carry full weight,
	// mass 2 >= 1.5 and the verdict lands.
	g.HandleDatagram(Digest{Monitor: "mon-b", Weight: 1, Seq: 2, Entries: []Opinion{
		{Subject: "x", State: StateOffline},
	}}.Marshal())
	g.HandleDatagram(Digest{Monitor: "mon-c", Weight: 1, Seq: 2, Entries: []Opinion{
		{Subject: "x", State: StateOffline},
	}}.Marshal())

	if got := g.VerdictOf("x"); got != StateOffline {
		t.Fatalf("verdict with full weights = %v, want offline", got)
	}
	ge := globalEvents(drain(sub))
	if len(ge) != 1 || ge[0].Type != registry.EventGlobalOffline {
		t.Fatalf("want exactly one GlobalOffline, got %+v", ge)
	}
}

func TestStaleDigestCannotRetract(t *testing.T) {
	_, _, g, _, _ := newTestRig(t, Options{Quorum: 2, Seed: 7})

	g.HandleDatagram(Digest{Monitor: "mon-b", Weight: 1, Seq: 5, Entries: []Opinion{
		{Subject: "x", State: StateOffline},
	}}.Marshal())
	if got := g.Counters().EntriesMerged; got != 1 {
		t.Fatalf("EntriesMerged = %d, want 1", got)
	}

	// A reordered older digest tries to retract the suspicion: ignored.
	g.HandleDatagram(Digest{Monitor: "mon-b", Weight: 1, Seq: 4, Entries: []Opinion{
		{Subject: "x", State: StateTrusted},
	}}.Marshal())
	if got := g.Counters().EntriesMerged; got != 1 {
		t.Fatalf("stale digest merged: EntriesMerged = %d, want 1", got)
	}

	// mon-b's (still-standing) offline opinion corroborates mon-c's.
	g.HandleDatagram(Digest{Monitor: "mon-c", Weight: 1, Seq: 1, Entries: []Opinion{
		{Subject: "x", State: StateOffline},
	}}.Marshal())
	if got := g.VerdictOf("x"); got != StateOffline {
		t.Fatalf("verdict = %v, want offline (stale retraction must not count)", got)
	}
}

func TestOpinionTTLExpiry(t *testing.T) {
	sim, _, g, _, sub := newTestRig(t, Options{Quorum: 2, Seed: 7, OpinionTTL: 1 * clock.Second})

	g.HandleDatagram(Digest{Monitor: "mon-b", Weight: 1, Seq: 1, Entries: []Opinion{
		{Subject: "x", State: StateOffline},
	}}.Marshal())
	g.HandleDatagram(Digest{Monitor: "mon-c", Weight: 1, Seq: 1, Entries: []Opinion{
		{Subject: "x", State: StateOffline},
	}}.Marshal())
	if got := g.VerdictOf("x"); got != StateOffline {
		t.Fatalf("verdict = %v, want offline", got)
	}
	drain(sub)

	// Both accusing monitors go quiet: their opinions age out and the
	// verdict is recanted rather than held forever.
	sim.Advance(2 * clock.Second)
	g.Round(sim.Now())

	if got := g.VerdictOf("x"); got != StateTrusted {
		t.Fatalf("verdict after TTL expiry = %v, want trusted", got)
	}
	ge := globalEvents(drain(sub))
	if len(ge) != 1 || ge[0].Type != registry.EventGlobalTrust {
		t.Fatalf("want exactly one GlobalTrust after expiry, got %+v", ge)
	}
	if c := g.Counters(); c.RemoteOpinions != 0 || c.OpenVerdicts != 0 {
		t.Fatalf("state not cleaned after expiry: %+v", c)
	}
}

func TestMistakeRateTracksEpisodeOutcomes(t *testing.T) {
	sim, reg, g, _, _ := newTestRig(t, Options{Quorum: 2, Seed: 7})

	if w := g.Weight(); w != 1 {
		t.Fatalf("initial weight = %v, want 1", w)
	}

	// Episode 1: suspect, then the subject recovers — a mistake.
	beat(reg, sim, "s1", 1, 0)
	sim.Advance(400 * clock.Millisecond) // past the 300 ms fixed timeout
	beat(reg, sim, "s1", 2, 0)
	g.Round(sim.Now())
	if mr := g.MistakeRate(); math.Abs(mr-0.2) > 1e-12 {
		t.Fatalf("mistake rate after one mistake = %v, want 0.2", mr)
	}
	if w := g.Weight(); math.Abs(w-0.8) > 1e-12 {
		t.Fatalf("weight = %v, want 0.8", w)
	}

	// Episode 2: suspect, then offline is confirmed — not a mistake, the
	// EWMA decays toward zero.
	sim.Advance(1 * clock.Second)
	g.Round(sim.Now())
	if mr := g.MistakeRate(); math.Abs(mr-0.16) > 1e-12 {
		t.Fatalf("mistake rate after confirmed offline = %v, want 0.16", mr)
	}
}

func TestDigestCarriesTrustedRefutation(t *testing.T) {
	sim, reg, g, ep, _ := newTestRig(t, Options{Quorum: 2, Seed: 7})

	beat(reg, sim, "s1", 1, 2)
	g.HandleDatagram(Digest{Monitor: "mon-b", Weight: 1, Seq: 1, Entries: []Opinion{
		{Subject: "s1", State: StateSuspect, Inc: 2, Level: 1.2},
	}}.Marshal())

	g.Round(sim.Now())
	sends := ep.take()
	if len(sends) != 2 { // fanout 2 over exactly 2 peers
		t.Fatalf("sent %d digests, want 2 (one per peer)", len(sends))
	}
	seen := map[string]bool{}
	for _, s := range sends {
		seen[s.to] = true
		d, err := UnmarshalDigest(s.payload)
		if err != nil {
			t.Fatalf("sent digest does not decode: %v", err)
		}
		if d.Monitor != "mon-a" || d.Weight != 1 {
			t.Fatalf("bad digest header: %+v", d)
		}
		if len(d.Entries) != 1 {
			t.Fatalf("digest entries = %+v, want the one disputed subject", d.Entries)
		}
		e := d.Entries[0]
		if e.Subject != "s1" || e.State != StateTrusted || e.Inc != 2 {
			t.Fatalf("want explicit trusted@inc2 refutation, got %+v", e)
		}
	}
	if !seen["mon-b"] || !seen["mon-c"] {
		t.Fatalf("digests went to %v, want both peers", seen)
	}
	if c := g.Counters(); c.DigestsSent != 2 {
		t.Fatalf("DigestsSent = %d, want 2", c.DigestsSent)
	}
}

func TestHandleDatagramForeignOwnAndMalformed(t *testing.T) {
	sim, _, g, _, _ := newTestRig(t, Options{Quorum: 2, Seed: 7})

	// A heartbeat on the shared socket: silently ignored.
	hb := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: 1, Time: sim.Now()}
	g.HandleDatagram(hb.Marshal())
	// Truncated gossip: counted as bad.
	g.HandleDatagram([]byte{'S', 'G', 1, 0})
	// Our own digest reflected back: ignored.
	g.HandleDatagram(Digest{Monitor: "mon-a", Weight: 1, Seq: 9}.Marshal())

	c := g.Counters()
	if c.DigestsReceived != 0 || c.DigestsBad != 1 || c.EntriesMerged != 0 {
		t.Fatalf("counters = %+v, want received 0, bad 1, merged 0", c)
	}
}

// TestGossipOverHubRealClock runs two full monitors over the in-memory
// hub on the real clock: transport.Pump feeds one shared socket per
// monitor into both the registry (heartbeats) and the gossiper (digests).
// A subject crash must reach a corroborated GlobalOffline on both
// monitors, and an incarnation-bumped restart must recant it.
func TestGossipOverHubRealClock(t *testing.T) {
	clk := clock.NewReal()
	hub := transport.NewHub(0, 0, 1)

	type monitor struct {
		reg *registry.Registry
		g   *Gossiper
		ep  *transport.MemEndpoint
	}
	mk := func(addr, peer string, seed int64) *monitor {
		reg := registry.New(clk,
			func(string) detector.Detector { return detector.NewFixed(80*clock.Millisecond, 0) },
			registry.Options{
				WheelTick:    5 * clock.Millisecond,
				OfflineAfter: 80 * clock.Millisecond,
				MaxSilence:   1 * clock.Second,
				EvictAfter:   -1,
			})
		reg.Start()
		ep := hub.Endpoint(addr)
		g := New(ep, clk, reg, []string{peer}, Options{Interval: 25 * clock.Millisecond, Quorum: 2, Seed: seed})
		g.Start()
		go transport.Pump(ep, func(in transport.Inbound) {
			if msg, err := heartbeat.Unmarshal(in.Payload); err == nil {
				if msg.Kind == heartbeat.KindHeartbeat {
					reg.Observe(heartbeat.Arrival{From: in.From, Seq: msg.Seq, Send: msg.Time, Recv: clk.Now(), Inc: msg.Inc})
				}
				return
			}
			g.HandleDatagram(in.Payload)
		})
		return &monitor{reg: reg, g: g, ep: ep}
	}
	ma := mk("monA", "monB", 1)
	mb := mk("monB", "monA", 2)
	defer func() {
		ma.g.Stop()
		mb.g.Stop()
		ma.reg.Stop()
		mb.reg.Stop()
		ma.ep.Close()
		mb.ep.Close()
	}()

	srv := hub.Endpoint("srv")
	defer srv.Close()
	sendBeats := func(inc uint64, stop <-chan struct{}) {
		tick := time.NewTicker(15 * time.Millisecond)
		defer tick.Stop()
		seq := uint64(0)
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				seq++
				b := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: seq, Time: clk.Now(), Inc: inc}.Marshal()
				_ = srv.Send("monA", b)
				_ = srv.Send("monB", b)
			}
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	stop1 := make(chan struct{})
	go sendBeats(0, stop1)
	time.Sleep(200 * time.Millisecond) // warm both registries
	close(stop1)                       // crash

	waitFor("corroborated GlobalOffline on both monitors", func() bool {
		return ma.g.VerdictOf("srv") == StateOffline && mb.g.VerdictOf("srv") == StateOffline
	})

	// Restart with a bumped incarnation: sequence numbers begin again at
	// 1, yet both monitors must return the subject to trusted.
	stop2 := make(chan struct{})
	go sendBeats(1, stop2)
	defer close(stop2)

	waitFor("verdicts recanted after restart", func() bool {
		return ma.g.VerdictOf("srv") == StateTrusted && mb.g.VerdictOf("srv") == StateTrusted
	})
	if inc, ok := ma.reg.IncarnationOf("srv"); !ok || inc != 1 {
		t.Fatalf("monA incarnation = %d/%v, want 1", inc, ok)
	}
}
