package registry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/transport"
)

// udpMonitor is a registry behind a heartbeat receiver on a real
// loopback socket, with a wide-margin Chen detector (no false suspicion
// at a 40 ms cadence) and every bus event recorded.
type udpMonitor struct {
	reg  *Registry
	recv *heartbeat.Receiver
	addr string

	mu     sync.Mutex
	events []Event
}

func startUDPMonitor(t *testing.T, clk clock.Clock) *udpMonitor {
	t.Helper()
	udp, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := New(clk, func(string) detector.Detector {
		return detector.NewChen(16, 50*clock.Millisecond, 300*clock.Millisecond)
	}, Options{
		WheelTick:    10 * clock.Millisecond,
		OfflineAfter: 2 * clock.Second,
		EvictAfter:   -1,
		MaxSilence:   5 * clock.Second,
	})
	reg.Start()
	m := &udpMonitor{reg: reg, recv: heartbeat.NewReceiver(udp, clk, reg.Observe), addr: udp.Addr()}
	m.recv.Start()
	sub := reg.Subscribe(1024)
	go func() {
		for ev := range sub.C() {
			m.mu.Lock()
			m.events = append(m.events, ev)
			m.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		udp.Close()
		m.recv.Wait()
		sub.Close()
		reg.Stop()
	})
	return m
}

// verdicts returns the suspect and offline events seen so far.
func (m *udpMonitor) verdicts() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	for _, ev := range m.events {
		if ev.Type == EventSuspect || ev.Type == EventOffline {
			out = append(out, ev)
		}
	}
	return out
}

func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// namedSender hand-builds wire-v3 heartbeats for one logical stream from
// its own UDP socket.
type namedSender struct {
	t        *testing.T
	name, to string
	udp      *transport.UDP
	seq, inc uint64
}

func newNamedSender(t *testing.T, name, to string) *namedSender {
	s := &namedSender{t: t, name: name, to: to, inc: 1}
	s.rebind(false)
	return s
}

func (s *namedSender) beat(clk clock.Clock) {
	m := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: s.seq, Time: clk.Now(), Inc: s.inc, Name: s.name}
	if err := s.udp.Send(s.to, m.Marshal()); err != nil {
		s.t.Fatal(err)
	}
	s.seq++
}

// rebind moves the stream to a fresh source socket and restarts its
// sequence numbering, as a NATed sender does after a rebind; bump also
// raises the incarnation, which is what lets the monitor accept seq 0.
func (s *namedSender) rebind(bump bool) {
	if s.udp != nil {
		s.udp.Close()
	}
	udp, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(func() { udp.Close() })
	s.udp, s.seq = udp, 0
	if bump {
		s.inc++
	}
}

// TestNATRebindKeepsTrust is the NAT-rebind regression (the wire-v3
// point): a mid-run rebind — new source socket, bumped incarnation,
// sequence reset — must NOT produce any suspect/offline transition for
// the stream, because the monitor keys it by logical name and the
// incarnation bump supersedes the old sequence numbering.
func TestNATRebindKeepsTrust(t *testing.T) {
	clk := clock.NewReal()
	m := startUDPMonitor(t, clk)
	senders := make([]*namedSender, 8)
	for i := range senders {
		senders[i] = newNamedSender(t, fmt.Sprintf("nat/s%d", i), m.addr)
	}
	sent := uint64(0)
	for round := 0; round < 30; round++ {
		if round == 10 || round == 20 {
			for _, s := range senders {
				s.rebind(true)
			}
		}
		for _, s := range senders {
			s.beat(clk)
			sent++
		}
		time.Sleep(40 * time.Millisecond)
	}
	waitFor(t, "every heartbeat accepted", 2*time.Second, func() bool {
		return m.reg.Counters().Heartbeats == sent
	})
	if stale := m.reg.Counters().Stale; stale != 0 {
		t.Fatalf("%d rebound heartbeats dropped as stale", stale)
	}
	if got := m.reg.Len(); got != len(senders) {
		t.Fatalf("%d streams registered, want %d (one per name, not per socket)", got, len(senders))
	}
	if v := m.verdicts(); len(v) != 0 {
		t.Fatalf("rebind caused spurious transitions: %v", v)
	}
}

// TestSeqResetWithoutIncBumpIsStale is the control for the rebind test:
// a sequence reset WITHOUT an incarnation bump is exactly what the stale
// filter must reject, proving the rebind path works because of the inc
// bump and not because the filter is lax.
func TestSeqResetWithoutIncBumpIsStale(t *testing.T) {
	clk := clock.NewReal()
	m := startUDPMonitor(t, clk)
	s := newNamedSender(t, "ctrl/a", m.addr)
	s.seq = 10
	for i := 0; i < 5; i++ {
		s.beat(clk)
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, "stream registered", 2*time.Second, func() bool { return m.reg.Counters().Heartbeats == 5 })
	s.rebind(false) // seq reset, same incarnation: must be dropped as stale
	s.beat(clk)
	waitFor(t, "stale reset counted", 2*time.Second, func() bool {
		return m.reg.Counters().Stale == 1
	})
	if got := m.reg.Counters().Heartbeats; got != 5 {
		t.Fatalf("stale seq-reset accepted: heartbeats 5 → %d", got)
	}
	s.seq, s.inc = 0, s.inc+1 // the same reset WITH the inc bump: accepted
	s.beat(clk)
	waitFor(t, "inc-bumped reset accepted", 2*time.Second, func() bool {
		return m.reg.Counters().Heartbeats == 6
	})
}

// TestReceiverSkipsInvalidNames: every beat under a v3 name the registry
// rejects still reaches the registry, which counts the name invalid and
// keeps no stream for it.
func TestReceiverSkipsInvalidNames(t *testing.T) {
	clk := clock.NewReal()
	m := startUDPMonitor(t, clk)
	s := newNamedSender(t, "", m.addr)
	const names, batch = 500, 50
	for i := 0; i < names; i++ {
		s.name = fmt.Sprintf("bad+%d", i)
		s.beat(clk)
		// Pace by batch so loopback never overruns the socket buffer.
		if sent := uint64(i + 1); sent%batch == 0 {
			waitFor(t, "batch received", 2*time.Second, func() bool {
				received, _ := m.recv.Counters()
				return received == sent
			})
		}
	}
	waitFor(t, "every name counted invalid", 2*time.Second, func() bool {
		return m.reg.Counters().InvalidNames == names
	})
	if n := m.reg.Len(); n != 0 {
		t.Fatalf("registry holds %d streams, want 0", n)
	}
}
