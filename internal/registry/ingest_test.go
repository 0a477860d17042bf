package registry

import (
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/transport"
)

// The receiver keeps no per-stream state: it hands every decoded
// heartbeat to Registry.Observe, the only stale filter. These tests drive
// real datagrams through a receiver into a registry and read what each
// stream's detector was fed.

// fedBeat is one beat a detector was fed. life numbers the stream's
// detectors: 1 is its first, and each incarnation bump makes a new one.
type fedBeat struct {
	life int
	seq  uint64
}

// beatLog records every beat the registry feeds its detectors.
type beatLog struct {
	mu    sync.Mutex
	lives int
	beats []fedBeat
}

func (l *beatLog) factory(string) detector.Detector {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lives++
	return &loggingDetector{Fixed: detector.NewFixed(clock.Second, 1), log: l, life: l.lives}
}

func (l *beatLog) fed() []fedBeat {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]fedBeat(nil), l.beats...)
}

// loggingDetector is a fixed-timeout detector that logs what it is fed.
type loggingDetector struct {
	*detector.Fixed
	log  *beatLog
	life int
}

func (d *loggingDetector) Observe(seq uint64, send, recv clock.Time) {
	d.log.mu.Lock()
	d.log.beats = append(d.log.beats, fedBeat{d.life, seq})
	d.log.mu.Unlock()
	d.Fixed.Observe(seq, send, recv)
}

// startIngest wires a registry with a logging detector behind a receiver
// on ep. The registry's wheel driver is not started: these tests read
// ingest only.
func startIngest(t *testing.T, ep transport.Endpoint) (*Registry, *heartbeat.Receiver, *beatLog) {
	t.Helper()
	log := &beatLog{}
	clk := clock.NewSim(0)
	reg := New(clk, log.factory, Options{})
	recv := heartbeat.NewReceiver(ep, clk, reg.Observe)
	recv.Start()
	t.Cleanup(func() {
		ep.Close()
		recv.Wait()
	})
	return reg, recv, log
}

// TestReceiverFiltersStale: duplicates and reordered beats pass through
// the receiver, and the registry feeds the detector only the beats above
// the stream's highest sequence, counting the rest stale.
func TestReceiverFiltersStale(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	sEP := hub.Endpoint("p")
	defer sEP.Close()
	reg, recv, log := startIngest(t, hub.Endpoint("q"))

	seqs := []uint64{0, 1, 2, 1, 2, 0, 3}
	for _, s := range seqs {
		if err := sEP.Send("q", heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: s}.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every beat disposed", 2*time.Second, func() bool {
		c := reg.Counters()
		return c.Heartbeats+c.Stale == uint64(len(seqs))
	})
	want := []fedBeat{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	if got := log.fed(); !slices.Equal(got, want) {
		t.Fatalf("detector fed %v, want %v", got, want)
	}
	if c := reg.Counters(); c.Heartbeats != 4 || c.Stale != 3 {
		t.Fatalf("registry heartbeats/stale %d/%d, want 4/3", c.Heartbeats, c.Stale)
	}
	if received, stale := recv.Counters(); received != uint64(len(seqs)) || stale != 0 {
		t.Fatalf("receiver counters %d/%d, want %d/0", received, stale, len(seqs))
	}
}

// TestReceiverIncarnationEcho: a restarted sender bumps its incarnation
// and restarts sequence numbering from 0. The registry must accept the
// new life at once, on a fresh detector, and reject stragglers from the
// dead one.
func TestReceiverIncarnationEcho(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	sEP := hub.Endpoint("p")
	defer sEP.Close()
	reg, _, log := startIngest(t, hub.Endpoint("q"))

	send := func(inc, seq uint64) {
		if err := sEP.Send("q", heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: seq, Inc: inc}.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 10)
	send(1, 0)  // restart: lower seq, higher incarnation → accepted
	send(0, 11) // straggler from the dead incarnation → dropped
	send(1, 1)
	waitFor(t, "every beat disposed", 2*time.Second, func() bool {
		c := reg.Counters()
		return c.Heartbeats+c.Stale == 4
	})
	want := []fedBeat{{1, 10}, {2, 0}, {2, 1}}
	if got := log.fed(); !slices.Equal(got, want) {
		t.Fatalf("detectors fed %v, want %v", got, want)
	}
	if stale := reg.Counters().Stale; stale != 1 {
		t.Fatalf("stale = %d, want 1", stale)
	}
}

// TestRegistryToleratesDuplicatedHeartbeats pushes real duplicated traffic
// (internal/chaos) through a receiver into a registry. The receiver hands
// on both copies of every beat; the detector sees each sequence exactly
// once, and the copies land in the registry's stale counter.
func TestRegistryToleratesDuplicatedHeartbeats(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	ctl := chaos.NewController(nil, 7)
	sender := hub.Endpoint("proc")
	defer sender.Close()
	monEp := chaos.Wrap(hub.Endpoint("mon"), ctl)
	monEp.Start()
	reg, recv, log := startIngest(t, monEp)

	if _, err := ctl.Arm(chaos.Impairment{Kind: chaos.KindDuplicate, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for seq := uint64(1); seq <= n; seq++ {
		msg := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: seq, Inc: 1}
		if err := sender.Send("mon", msg.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "duplicated heartbeats", 2*time.Second, func() bool {
		c := reg.Counters()
		return c.Heartbeats == n && c.Stale == n
	})
	got := log.fed()
	if len(got) != n {
		t.Fatalf("detector fed %d beats, want %d: %v", len(got), n, got)
	}
	for i, b := range got {
		if b != (fedBeat{1, uint64(i + 1)}) {
			t.Fatalf("beat %d fed as %+v, want seq %d in life 1", i, b, i+1)
		}
	}
	if received, _ := recv.Counters(); received != 2*n {
		t.Fatalf("receiver handed on %d beats, want both copies of %d", received, n)
	}
}

// TestObserveClonesAliasedName: a receiver's Arrival.Name aliases the
// pooled receive buffer, which the next datagram overwrites. The registry
// must copy the name when it creates the stream, so the stream's map key,
// its Snapshot and StatusOf rows and its bus events keep the name the
// beat carried. Dropping the copy fails every check below.
func TestObserveClonesAliasedName(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, func(string) detector.Detector { return detector.NewFixed(100*ms, 1) },
		Options{WheelTick: 10 * ms})
	r.Start()
	defer r.Stop()
	sub := r.Subscribe(16)

	const name = "dc/zone-1/s-01"
	buf := []byte(name)
	r.Observe(heartbeat.Arrival{From: "10.0.0.1:9000", Name: unsafe.String(&buf[0], len(buf)), Seq: 1, Inc: 1})
	copy(buf, "XX/XXXXXX/XXXX") // the next datagram reuses the buffer

	if _, ok := r.StatusOf(name, sim.Now()); !ok {
		t.Fatalf("StatusOf(%q) finds no stream", name)
	}
	if _, ok := r.StatusOf("10.0.0.1:9000", sim.Now()); ok {
		t.Fatal("a named arrival registered its source address")
	}
	if snap := r.Snapshot(sim.Now()); len(snap) != 1 || snap[0].Peer != name {
		t.Fatalf("Snapshot = %+v, want one row for %q", snap, name)
	}
	sim.Advance(200 * ms)
	if evs := drain(sub); len(evs) == 0 || evs[0].Type != EventSuspect || evs[0].Peer != name {
		t.Fatalf("events = %v, want suspect(%s) first", evs, name)
	}
}
