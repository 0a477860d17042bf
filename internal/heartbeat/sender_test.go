package heartbeat

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestSenderPaceValidate(t *testing.T) {
	bad := []struct {
		jitter float64
		ramp   time.Duration
	}{
		{1, 0},
		{-0.1, 0},
		{0, -time.Second},
	}
	for _, p := range bad {
		if err := NewSender(nil, "q", time.Second, nil).Pace(p.jitter, p.ramp); err == nil {
			t.Errorf("Pace(%g, %v) accepted", p.jitter, p.ramp)
		}
	}
	if err := NewSender(nil, "q", time.Second, nil).Pace(0.99, time.Minute); err != nil {
		t.Fatal(err)
	}
	// A non-positive interval falls back to the default cadence.
	for _, iv := range []time.Duration{0, -time.Second} {
		if s := NewSender(nil, "q", iv, nil); s.next() != 100*time.Millisecond {
			t.Errorf("interval %v: gap %v, want the 100ms default", iv, s.next())
		}
	}
}

func TestSenderNextStaysInJitterBand(t *testing.T) {
	s := NewSender(nil, "q", time.Second, nil)
	if err := s.pace(0.2, 0, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	lo, hi := s.interval, s.interval
	for i := 0; i < 1000; i++ {
		d := s.next()
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo < 800*time.Millisecond || hi > 1200*time.Millisecond {
		t.Fatalf("gaps [%v, %v] escape ±20%% band", lo, hi)
	}
	if hi-lo < 100*time.Millisecond {
		t.Fatalf("gaps [%v, %v] barely vary; jitter not applied", lo, hi)
	}
	// Jitter off: fixed cadence.
	fixed := NewSender(nil, "q", time.Second, nil)
	if d := fixed.next(); d != time.Second {
		t.Fatalf("jitterless gap = %v", d)
	}
}

// TestSenderRampSpreadsStartDelays: a fleet paced with one ramp spreads
// its first beats across the whole window, and no ramp means no delay.
func TestSenderRampSpreadsStartDelays(t *testing.T) {
	const ramp = 10 * time.Second
	delays := make([]time.Duration, 100)
	for i := range delays {
		s := NewSender(nil, "q", time.Second, nil)
		if err := s.pace(0, ramp, rand.New(rand.NewSource(int64(i+1)))); err != nil {
			t.Fatal(err)
		}
		delays[i] = s.StartDelay()
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	if delays[0] < 0 || delays[99] >= ramp {
		t.Fatalf("delays [%v, %v] escape [0, %v)", delays[0], delays[99], ramp)
	}
	if delays[0] > time.Second || delays[99] < 9*time.Second {
		t.Fatalf("delays [%v, %v] do not span the ramp", delays[0], delays[99])
	}
	if mid := delays[50]; mid < 4*time.Second || mid > 6*time.Second {
		t.Fatalf("median delay = %v, want ≈5s", mid)
	}
	s := NewSender(nil, "q", time.Second, nil)
	if err := s.Pace(0.5, 0); err != nil || s.StartDelay() != 0 {
		t.Fatalf("no-ramp delay = %v (%v)", s.StartDelay(), err)
	}
}

// TestJitteredSenderHeartbeats: a jittered sender still delivers an
// unbroken sequence, and it stops during its ramp delay when told to.
func TestJitteredSenderHeartbeats(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	sEP := hub.Endpoint("p")
	rEP := hub.Endpoint("q")
	defer sEP.Close()
	var got []Arrival
	recv := NewReceiver(rEP, nil, func(a Arrival) { got = append(got, a) })
	recv.Start()

	snd := NewSender(sEP, "q", 5*time.Millisecond, nil)
	if err := snd.pace(0.5, 20*time.Millisecond, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	snd.Start()
	time.Sleep(120 * time.Millisecond)
	snd.Stop()
	rEP.Close()
	recv.Wait()
	if len(got) < 5 {
		t.Fatalf("received only %d heartbeats", len(got))
	}
	for i, a := range got {
		if a.Seq != uint64(i) {
			t.Fatalf("seq %d at %d", a.Seq, i)
		}
	}

	late := NewSender(sEP, "q", time.Millisecond, nil)
	if err := late.Pace(0, time.Hour); err != nil {
		t.Fatal(err)
	}
	late.Start()
	late.Stop()
	if late.Sent() != 0 {
		t.Fatalf("sender stopped in its ramp sent %d heartbeats", late.Sent())
	}
}
