package registry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
)

const ms = clock.Millisecond

func chenFactory(interval, margin clock.Duration) Factory {
	return func(string) detector.Detector {
		return detector.NewChen(64, interval, margin)
	}
}

// drain empties a subscription's queued events without blocking.
func drain(sub *Subscription) []Event {
	var out []Event
	for {
		select {
		case ev := <-sub.C():
			out = append(out, ev)
		default:
			return out
		}
	}
}

// TestRegistryTransitionsUnderSim walks one stream through the whole
// machine — suspect, offline, evict — and another through a wrongful
// suspicion corrected by recovery, all deterministically on clock.Sim.
func TestRegistryTransitionsUnderSim(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, chenFactory(100*ms, 200*ms), Options{
		WheelTick:    10 * ms,
		OfflineAfter: 500 * ms,
		EvictAfter:   500 * ms,
	})
	r.Start()
	defer r.Stop()
	sub := r.Subscribe(256)

	feed := func(peer string, seq uint64) {
		now := sim.Now()
		r.Observe(heartbeat.Arrival{From: peer, Seq: seq, Send: now.Add(-2 * ms), Recv: now})
	}

	// Both peers beat every 100 ms for 2 s.
	for i := 0; i < 20; i++ {
		feed("steady", uint64(i))
		feed("flaky", uint64(i))
		sim.Advance(100 * ms)
	}
	if evs := drain(sub); len(evs) != 0 {
		t.Fatalf("unexpected events while healthy: %v", evs)
	}

	// "flaky" goes silent for 600 ms — long enough to be suspected
	// (freshness ≈ 300 ms after its last beat) but it recovers before
	// the 500 ms OfflineAfter grace expires.
	for i := 20; i < 25; i++ {
		feed("steady", uint64(i))
		sim.Advance(100 * ms)
	}
	feed("flaky", 25)
	feed("steady", 25)

	evs := drain(sub)
	if len(evs) != 2 || evs[0].Type != EventSuspect || evs[0].Peer != "flaky" ||
		evs[1].Type != EventTrust || evs[1].Peer != "flaky" {
		t.Fatalf("want [suspect(flaky) trust(flaky)], got %v", evs)
	}
	if st, ok := r.Stats("flaky"); !ok || st.Mistakes != 1 || st.MistakeTime <= 0 {
		t.Fatalf("flaky stats = %+v, ok=%v; want one mistake with positive duration", st, ok)
	}

	// Now "flaky" crashes for good: suspect → offline → evicted.
	for i := 26; i < 56; i++ {
		feed("steady", uint64(i))
		sim.Advance(100 * ms)
	}
	evs = drain(sub)
	want := []EventType{EventSuspect, EventOffline, EventEvicted}
	if len(evs) != len(want) {
		t.Fatalf("crash events = %v, want types %v", evs, want)
	}
	for i, ev := range evs {
		if ev.Type != want[i] || ev.Peer != "flaky" {
			t.Fatalf("crash event %d = %v, want %v(flaky)", i, ev, want[i])
		}
		if i > 0 && ev.At.Before(evs[i-1].At) {
			t.Fatalf("events out of order: %v", evs)
		}
	}
	if _, ok := r.StatusOf("flaky", sim.Now()); ok {
		t.Fatal("evicted stream still present")
	}
	if st, ok := r.StatusOf("steady", sim.Now()); !ok || st != StatusActive {
		t.Fatalf("steady status = %v, want active", st)
	}

	c := r.Counters()
	if c.Suspects != 2 || c.Trusts != 1 || c.Offlines != 1 || c.Evictions != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Streams != 1 || r.Len() != 1 {
		t.Fatalf("streams = %d, want 1", c.Streams)
	}
}

// TestRegistrySilenceSafetyNet: a stream whose detector never forms a
// freshness point (single heartbeat, unknown interval) is still
// suspected and eventually evicted via MaxSilence.
func TestRegistrySilenceSafetyNet(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, nil, Options{ // default factory: SFD, interval estimated
		WheelTick:    10 * ms,
		MaxSilence:   200 * ms,
		OfflineAfter: 100 * ms,
		EvictAfter:   100 * ms,
	})
	r.Start()
	defer r.Stop()
	sub := r.Subscribe(16)

	r.Observe(heartbeat.Arrival{From: "oneshot", Seq: 0, Send: 0, Recv: sim.Now()})
	sim.Advance(clock.Second)

	evs := drain(sub)
	want := []EventType{EventSuspect, EventOffline, EventEvicted}
	if len(evs) != len(want) {
		t.Fatalf("events = %v, want %v", evs, want)
	}
	for i, ev := range evs {
		if ev.Type != want[i] {
			t.Fatalf("event %d = %v, want %v", i, ev, want[i])
		}
	}
	if r.Len() != 0 {
		t.Fatalf("registry still holds %d streams", r.Len())
	}
}

// TestRegistryRegisterBeforeHeartbeat: an explicitly registered but
// silent peer is bounded by the safety net too.
func TestRegistryRegisterBeforeHeartbeat(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, chenFactory(100*ms, 100*ms), Options{
		WheelTick:    10 * ms,
		MaxSilence:   200 * ms,
		OfflineAfter: 100 * ms,
		EvictAfter:   100 * ms,
	})
	r.Start()
	defer r.Stop()

	r.Register("silent")
	r.Register("silent") // idempotent
	if r.Len() != 1 {
		t.Fatalf("Len = %d after double register", r.Len())
	}
	if st, ok := r.StatusOf("silent", sim.Now()); !ok || st != StatusUnknown {
		t.Fatalf("status = %v, want unknown", st)
	}
	sim.Advance(clock.Second)
	if r.Len() != 0 {
		t.Fatal("silent registered peer was never evicted")
	}
}

// infeasibleDet fakes a self-tuning detector stuck in the infeasible
// state to exercise the EventCannotSatisfy path.
type infeasibleDet struct {
	detector.Detector
	state core.State
}

func (d *infeasibleDet) State() core.State { return d.state }
func (d *infeasibleDet) Response() string  { return "cannot satisfy (test)" }

func TestRegistryCannotSatisfyPublishedOncePerEpisode(t *testing.T) {
	sim := clock.NewSim(0)
	det := &infeasibleDet{Detector: detector.NewChen(8, 100*ms, 100*ms), state: core.StateTuning}
	r := New(sim, func(string) detector.Detector { return det }, Options{})
	sub := r.Subscribe(16)

	feed := func(seq uint64) {
		r.Observe(heartbeat.Arrival{From: "p", Seq: seq, Send: sim.Now(), Recv: sim.Now()})
		sim.Advance(100 * ms)
	}
	feed(0)
	det.state = core.StateInfeasible
	feed(1)
	feed(2) // same episode: no second event
	det.state = core.StateTuning
	feed(3)
	det.state = core.StateInfeasible
	feed(4) // new episode: second event

	evs := drain(sub)
	if len(evs) != 2 {
		t.Fatalf("cannot-satisfy events = %v, want exactly 2", evs)
	}
	for _, ev := range evs {
		if ev.Type != EventCannotSatisfy || ev.Detail() == "" {
			t.Fatalf("bad event %v", ev)
		}
	}
	if c := r.Counters(); c.CannotSatisfy != 2 {
		t.Fatalf("CannotSatisfy counter = %d", c.CannotSatisfy)
	}
}

// TestRegistryStaleArrivalsDropped mirrors the receiver contract:
// duplicate or reordered sequence numbers never reach the detector.
func TestRegistryStaleArrivalsDropped(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, chenFactory(100*ms, 100*ms), Options{})
	for _, seq := range []uint64{5, 6, 6, 3, 7} {
		r.Observe(heartbeat.Arrival{From: "p", Seq: seq, Send: sim.Now(), Recv: sim.Now()})
		sim.Advance(10 * ms)
	}
	c := r.Counters()
	if c.Heartbeats != 3 || c.Stale != 2 {
		t.Fatalf("heartbeats=%d stale=%d, want 3/2", c.Heartbeats, c.Stale)
	}
	st, _ := r.Stats("p")
	if st.Heartbeats != 3 || st.Stale != 2 {
		t.Fatalf("stream stats = %+v", st)
	}
}

// TestRegistryShardOccupancyUniform: FNV striping should spread peers
// across all shards.
// TestRegistryReregisterNoStaleFire: register→deregister→register on the
// same address must never let a wheel entry from the first life fire a
// transition against the second. Generations are registry-global, so the
// old entry can never alias the new stream; the re-registered peer's
// first suspect event fires at ITS deadline, not the old stream's.
func TestRegistryReregisterNoStaleFire(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, chenFactory(100*ms, 200*ms), Options{
		WheelTick:  10 * ms,
		MaxSilence: 100 * ms,
	})
	r.Start()
	defer r.Stop()
	sub := r.Subscribe(256)

	r.Register("p") // arms the silence net: entry due at t=100ms
	sim.Advance(50 * ms)
	if !r.Deregister("p") {
		t.Fatal("Deregister returned false for a registered peer")
	}
	r.Register("p") // second life: silence entry due at t=150ms

	// Cross the first life's deadline: nothing may fire (the old entry's
	// generation can no longer match any live stream).
	sim.Advance(60 * ms) // t=110ms
	if evs := drain(sub); len(evs) != 0 {
		t.Fatalf("stale wheel entry fired against re-registered peer: %v", evs)
	}
	// The second life's own deadline still works.
	sim.Advance(50 * ms) // t=160ms
	evs := drain(sub)
	if len(evs) != 1 || evs[0].Type != EventSuspect {
		t.Fatalf("expected exactly the second life's suspect event, got %v", evs)
	}
	if evs[0].At < clock.Time(150*ms) {
		t.Fatalf("suspect fired at %v, before the second life's deadline 150ms", evs[0].At)
	}
}

// TestRegistryReregisterChurnRace hammers register→deregister→register
// (plus heartbeats that re-arm the wheel) from several goroutines under
// the real clock — the -race churn scenario; generation uniqueness keeps
// the wheel, the shards, and the event stream consistent.
func TestRegistryReregisterChurnRace(t *testing.T) {
	r := New(nil, chenFactory(clock.Millisecond, clock.Millisecond), Options{
		WheelTick:    clock.Millisecond,
		MaxSilence:   2 * clock.Millisecond,
		OfflineAfter: 2 * clock.Millisecond,
		EvictAfter:   2 * clock.Millisecond,
	})
	r.Start()
	defer r.Stop()
	sub := r.Subscribe(4096)
	defer sub.Close()
	go func() {
		for range sub.C() { // keep the bus draining
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			peer := fmt.Sprintf("churn-%d", g)
			clk := clock.NewReal()
			for i := 0; i < 300; i++ {
				r.Register(peer)
				r.Observe(heartbeat.Arrival{From: peer, Seq: uint64(i), Recv: clk.Now()})
				r.Deregister(peer)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		r.Deregister(fmt.Sprintf("churn-%d", g))
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("streams left after churn: %d", n)
	}
}

// TestRegistryIncarnationRestart: a bumped incarnation supersedes the old
// life even with a lower sequence number, recovers a suspected stream,
// and restarts the detector.
func TestRegistryIncarnationRestart(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, chenFactory(100*ms, 200*ms), Options{
		WheelTick:    10 * ms,
		OfflineAfter: 500 * ms,
	})
	r.Start()
	defer r.Stop()
	sub := r.Subscribe(256)

	feed := func(inc, seq uint64) {
		r.Observe(heartbeat.Arrival{From: "p", Seq: seq, Send: sim.Now(), Recv: sim.Now(), Inc: inc})
	}
	for i := 0; i < 10; i++ {
		feed(0, uint64(i))
		sim.Advance(100 * ms)
	}
	// Crash: silence until the stream is suspected.
	sim.Advance(600 * ms)
	found := false
	for _, ev := range drain(sub) {
		if ev.Type == EventSuspect {
			found = true
		}
	}
	if !found {
		t.Fatal("stream not suspected after going silent")
	}

	// Old-incarnation straggler must NOT recover the stream.
	feed(0, 3)
	if evs := drain(sub); len(evs) != 0 {
		t.Fatalf("dead-incarnation straggler produced events: %v", evs)
	}

	// The restarted process (inc 1, seq from 0) recovers it.
	feed(1, 0)
	evs := drain(sub)
	if len(evs) != 1 || evs[0].Type != EventTrust || evs[0].Incarnation != 1 {
		t.Fatalf("restart events = %v, want one trust at incarnation 1", evs)
	}
	if inc, ok := r.IncarnationOf("p"); !ok || inc != 1 {
		t.Fatalf("IncarnationOf = %d,%v want 1,true", inc, ok)
	}
}

func TestRegistryShardOccupancy(t *testing.T) {
	r := New(clock.NewSim(0), chenFactory(100*ms, 100*ms), Options{Shards: 8})
	for i := 0; i < 4096; i++ {
		r.Register(fmt.Sprintf("10.0.%d.%d:7946", i/256, i%256))
	}
	occ := r.ShardOccupancy()
	if len(occ) != 8 {
		t.Fatalf("shards = %d, want 8", len(occ))
	}
	total := 0
	for s, n := range occ {
		total += n
		if n == 0 {
			t.Errorf("shard %d empty — striping is degenerate", s)
		}
	}
	if total != 4096 {
		t.Fatalf("total occupancy %d, want 4096", total)
	}
}

// TestRegistryHTTPEndpoints exercises /status, /vars and /healthz.
func TestRegistryHTTPEndpoints(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, chenFactory(100*ms, 100*ms), Options{})
	for i := 0; i < 3; i++ {
		r.Observe(heartbeat.Arrival{From: fmt.Sprintf("peer-%d", i), Seq: 1, Send: 0, Recv: sim.Now()})
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Counters Counters `json:"counters"`
		Shards   []int    `json:"shard_occupancy"`
		Streams  []struct {
			Peer   string `json:"peer"`
			Status string `json:"status"`
		} `json:"streams"`
	}
	if err := json.NewDecoder(res.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(status.Streams) != 3 || status.Counters.Heartbeats != 3 {
		t.Fatalf("status = %+v", status)
	}
	if status.Streams[0].Peer != "peer-0" {
		t.Fatalf("streams not sorted: %+v", status.Streams)
	}

	res, err = srv.Client().Get(srv.URL + "/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Counters Counters `json:"counters"`
	}
	if err := json.NewDecoder(res.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if vars.Counters.Streams != 3 {
		t.Fatalf("vars = %+v", vars)
	}

	res, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("healthz status %d", res.StatusCode)
	}
}

// TestRegistryConcurrentRealClock hammers a real-clock registry from
// many goroutines — ingest, snapshots, subscribe/close, register/
// deregister — while the wheel goroutine fires transitions. Exists for
// the race detector; assertions are minimal.
func TestRegistryConcurrentRealClock(t *testing.T) {
	r := New(clock.NewReal(), func(string) detector.Detector {
		return detector.NewFixed(5*ms, 1)
	}, Options{
		WheelTick:    ms,
		OfflineAfter: 10 * ms,
		EvictAfter:   10 * ms,
		MaxSilence:   20 * ms,
	})
	clk := clock.NewReal()
	r.Start()
	defer r.Stop()

	var wg sync.WaitGroup
	const workers = 8
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := r.Subscribe(8)
			defer sub.Close()
			for i := 0; i < 400; i++ {
				peer := fmt.Sprintf("w%d-p%d", g, i%16)
				now := clk.Now()
				r.Observe(heartbeat.Arrival{From: peer, Seq: uint64(i/16 + 1), Send: now, Recv: now})
				switch i % 64 {
				case 7:
					r.Snapshot(clk.Now())
				case 19:
					r.Deregister(peer)
				case 31:
					r.Counters()
				case 47:
					drain(sub)
				}
				if i%50 == 0 {
					clk.Sleep(ms)
				}
			}
		}(g)
	}
	wg.Wait()
	// Let the wheel chew through remaining deadlines, then make sure the
	// registry still answers queries coherently.
	clk.Sleep(50 * ms)
	_ = r.Snapshot(clk.Now())
	c := r.Counters()
	if c.Heartbeats == 0 {
		t.Fatal("no heartbeats ingested")
	}
}

// TestRegisterRejectsInvalidStreamNames is the ISSUE's regression test:
// names with empty segments (`a//b`) or wildcard characters must be
// rejected at every registration boundary — explicit Register and
// heartbeat auto-registration alike — so publish-side topic matching
// stays unambiguous.
func TestRegisterRejectsInvalidStreamNames(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, chenFactory(100*ms, 200*ms), Options{})
	bad := []string{"a//b", "", "/a", "a/", "srv/+/x", "srv/#", "a#b"}
	for _, name := range bad {
		if err := r.Register(name); err == nil {
			t.Errorf("Register(%q) accepted an invalid name", name)
		}
	}
	if err := r.Register("a/b"); err != nil {
		t.Fatalf("Register(a/b): %v", err)
	}

	// Heartbeats from invalid names are dropped, not auto-registered.
	for _, name := range bad {
		r.Observe(heartbeat.Arrival{From: name, Seq: 0, Send: 0, Recv: 0})
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("Len() = %d, want 1 (only a/b)", got)
	}
	c := r.Counters()
	if want := uint64(2 * len(bad)); c.InvalidNames != want {
		t.Fatalf("InvalidNames = %d, want %d", c.InvalidNames, want)
	}
	if c.Heartbeats != 0 {
		t.Fatalf("Heartbeats = %d, want 0 (invalid arrivals must not count)", c.Heartbeats)
	}
}

// TestTickBufferForgetsFiredNames: Tick reuses one buffer for the wheel's
// due entries, so without clearing, its slots past the current length
// would keep the names of the largest burst ever fired, and evicted
// streams' names would stay reachable for as long as the registry lives.
func TestTickBufferForgetsFiredNames(t *testing.T) {
	r := New(clock.NewSim(0), func(string) detector.Detector { return detector.NewFixed(100*ms, 0) },
		Options{WheelTick: 10 * ms, MaxSilence: -1, OfflineAfter: 100 * ms, EvictAfter: 100 * ms})
	for i := 0; i < 200; i++ {
		r.Observe(heartbeat.Arrival{From: fmt.Sprintf("burst-%03d", i), Seq: 1})
	}
	now := clock.Time(0)
	for r.Len() > 0 {
		if now > clock.Time(clock.Second) {
			t.Fatalf("%d streams left after %v, want all evicted", r.Len(), now)
		}
		now = now.Add(10 * ms)
		r.Tick(now)
	}
	r.Tick(now.Add(10 * ms)) // an empty tick
	if cap(r.tickBuf) < 200 {
		t.Fatalf("tick buffer capacity %d: the eviction burst never passed through it", cap(r.tickBuf))
	}
	for i, x := range r.tickBuf[:cap(r.tickBuf)] {
		if x.peer != "" {
			t.Fatalf("tick buffer slot %d still holds %q after an empty tick", i, x.peer)
		}
	}
}
