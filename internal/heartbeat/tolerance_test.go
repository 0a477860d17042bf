package heartbeat

// Receiver-side tolerance under real impairment: the transport.Endpoint
// contract allows duplicated and truncated payloads, and internal/chaos
// produces both on a live path. The receiver hands every copy on intact
// (the registry behind it drops the duplicates: see registry's
// TestRegistryToleratesDuplicatedHeartbeats), truncation must decode as
// foreign damage, and the prober's outstanding-seq table must absorb
// duplicated pongs. These tests push actual impaired traffic through
// the same goroutine pumps sfdmon runs, rather than calling the codec
// with synthetic inputs.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/transport"
)

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReceiverToleratesDuplicationAndTruncation(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	ctl := chaos.NewController(nil, 7)
	sender := hub.Endpoint("proc")
	monEp := chaos.Wrap(hub.Endpoint("mon"), ctl)
	defer sender.Close()

	var arrivals atomic.Uint64
	var mu sync.Mutex
	copies := make(map[uint64]int)
	recv := NewReceiver(monEp, nil, func(a Arrival) {
		arrivals.Add(1)
		mu.Lock()
		copies[a.Seq]++
		mu.Unlock()
	})
	monEp.Start()
	recv.Start()
	defer monEp.Close()

	// Phase 1: every heartbeat duplicated in flight. The receiver keeps
	// no per-stream state, so the handler sees each sequence exactly
	// twice and nothing is counted stale.
	dupID, err := ctl.Arm(chaos.Impairment{Kind: chaos.KindDuplicate, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for seq := uint64(1); seq <= n; seq++ {
		msg := Message{Kind: KindHeartbeat, Seq: seq, Time: 0, Inc: 1}
		if err := sender.Send("mon", msg.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "duplicated heartbeats", func() bool {
		received, _ := recv.Counters()
		return received == 2*n
	})
	if got := arrivals.Load(); got != 2*n {
		t.Fatalf("handler ran %d times, want %d", got, 2*n)
	}
	if _, stale := recv.Counters(); stale != 0 {
		t.Fatalf("receiver counted %d stale, want 0", stale)
	}
	mu.Lock()
	for seq := uint64(1); seq <= n; seq++ {
		if copies[seq] != 2 {
			t.Errorf("seq %d handed on %d times, want 2", seq, copies[seq])
		}
	}
	mu.Unlock()

	// Phase 2: heartbeats truncated mid-payload decode as foreign
	// damage, never as accepted arrivals, and never panic.
	ctl.Disarm(dupID)
	if _, err := ctl.Arm(chaos.Impairment{Kind: chaos.KindTruncate, Rate: 1, Bytes: 14}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(n + 1); seq <= n+5; seq++ {
		msg := Message{Kind: KindHeartbeat, Seq: seq, Time: 0, Inc: 1}
		if err := sender.Send("mon", msg.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "truncated heartbeats", func() bool {
		return ctl.Counters().Truncated == 5
	})
	// Heal and confirm the stream resumes where it left off.
	ctl.DisarmAll()
	final := Message{Kind: KindHeartbeat, Seq: n + 6, Time: 0, Inc: 1}
	if err := sender.Send("mon", final.Marshal()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-heal heartbeat", func() bool {
		received, _ := recv.Counters()
		return received == 2*n+1
	})
	if got := arrivals.Load(); got != 2*n+1 {
		t.Fatalf("handler ran %d times, want %d (truncated damage leaked through)", got, 2*n+1)
	}
}

func TestProberDedupUnderDuplicationImpairment(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	ctl := chaos.NewController(nil, 11)

	// The responder answers pings on a clean endpoint.
	responderEp := hub.Endpoint("svc")
	responder := NewReceiver(responderEp, nil, nil)
	responder.Start()
	defer responderEp.Close()

	// The prober's endpoint duplicates every inbound pong.
	probeEp := chaos.Wrap(hub.Endpoint("probe"), ctl)
	if _, err := ctl.Arm(chaos.Impairment{Kind: chaos.KindDuplicate, Rate: 1, Direction: chaos.DirIn}); err != nil {
		t.Fatal(err)
	}
	probeEp.Start()
	defer probeEp.Close()

	p := NewProber(probeEp, "svc", nil)
	p.Start(2 * time.Millisecond)
	defer p.Stop()

	waitFor(t, "probe samples", func() bool { return p.Samples() >= 10 })
	samples, ignored := p.Samples(), p.Ignored()
	if ignored < uint64(samples)/2 {
		t.Fatalf("ignored %d duplicate pongs for %d samples; dedup not engaged", ignored, samples)
	}
	if _, ok := p.RTT(); !ok {
		t.Fatal("no RTT estimate despite accepted pongs")
	}
}
