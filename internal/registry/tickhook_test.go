package registry

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
)

// hookRig is a registry of fixed-timeout streams with a firehose
// subscription and an OnTick hook that drains it: every event the hook
// sees must have been published by the tick it runs at the end of.
type hookRig struct {
	t     *testing.T
	r     *Registry
	sub   *Subscription
	calls []clock.Time
	seen  int
}

func newHookRig(t *testing.T, clk clock.Clock) *hookRig {
	h := &hookRig{t: t}
	h.r = New(clk, func(string) detector.Detector { return detector.NewFixed(100*ms, 0) },
		Options{WheelTick: 10 * ms, OfflineAfter: 200 * ms, MaxSilence: -1, EvictAfter: -1})
	h.sub = h.r.Subscribe(64)
	h.r.OnTick(func(now clock.Time) {
		h.calls = append(h.calls, now)
		for _, ev := range drain(h.sub) {
			if ev.At != now {
				h.t.Fatalf("hook at %v saw %s published at %v: not after its own tick's publishes", now, ev.Type, ev.At)
			}
			h.seen++
		}
	})
	for i := 0; i < 3; i++ {
		h.r.Observe(heartbeat.Arrival{From: fmt.Sprintf("p%d", i), Seq: 1, Inc: 1})
	}
	return h
}

// check asserts the hook ran once per tick and saw every suspect and
// offline transition (3 streams × 2) inside the tick that fired it.
func (h *hookRig) check(ticks int) {
	h.t.Helper()
	if len(h.calls) != ticks {
		h.t.Fatalf("hook ran %d times, want %d (once per Tick)", len(h.calls), ticks)
	}
	if h.seen != 6 || len(drain(h.sub)) != 0 {
		h.t.Fatalf("hook saw %d transitions, want all 6 inside their ticks", h.seen)
	}
}

// TestOnTickRunsAfterPublishManual steps Tick by hand, with no driver.
func TestOnTickRunsAfterPublishManual(t *testing.T) {
	h := newHookRig(t, clock.NewSim(0))
	for i := 1; i <= 40; i++ {
		h.r.Tick(clock.Time(i) * clock.Time(10*ms))
	}
	h.check(40)
}

// TestOnTickRunsAfterPublishSim runs the clock.Sim driver chain.
func TestOnTickRunsAfterPublishSim(t *testing.T) {
	sim := clock.NewSim(0)
	h := newHookRig(t, sim)
	h.r.Start()
	defer h.r.Stop()
	sim.Advance(400 * ms)
	h.check(40)
	for i, at := range h.calls {
		if want := clock.Time(i+1) * clock.Time(10*ms); at != want {
			t.Fatalf("call %d at %v, want %v", i, at, want)
		}
	}
}

// TestOnTickConcurrentInstall installs and removes hooks while another
// goroutine ticks (run under -race): a tick sees some consistent list.
func TestOnTickConcurrentInstall(t *testing.T) {
	r := New(clock.NewSim(0), nil, Options{WheelTick: 10 * ms})
	var ticks atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 2000; i++ {
			r.Tick(clock.Time(i) * clock.Time(10*ms))
		}
	}()
	for i := 0; i < 500; i++ {
		remove := r.OnTick(func(clock.Time) { ticks.Add(1) })
		keep := r.OnTick(func(clock.Time) {})
		remove()
		defer keep()
	}
	<-done
	if n := len(*r.tickHooks.Load()); n != 500 {
		t.Fatalf("%d hooks installed, want 500", n)
	}
}

// TestOnTickRemoveAndSeveral covers several hooks (run in install order),
// removal, idempotent removal, and the empty list going back to nil.
func TestOnTickRemoveAndSeveral(t *testing.T) {
	r := New(clock.NewSim(0), nil, Options{WheelTick: 10 * ms})
	var order []string
	rmA := r.OnTick(func(clock.Time) { order = append(order, "a") })
	rmB := r.OnTick(func(clock.Time) { order = append(order, "b") })
	rmC := r.OnTick(func(clock.Time) { order = append(order, "c") })
	r.Tick(clock.Time(10 * ms))
	rmB()
	rmB()
	r.Tick(clock.Time(20 * ms))
	rmA()
	r.Tick(clock.Time(30 * ms))
	if got, want := fmt.Sprint(order), "[a b c a c c]"; got != want {
		t.Fatalf("hook calls %s, want %s", got, want)
	}
	rmC()
	r.Tick(clock.Time(40 * ms))
	if len(order) != 6 {
		t.Fatalf("removed hook ran: %v", order)
	}
	if r.tickHooks.Load() != nil {
		t.Fatal("hook list not nil after removing every hook")
	}
}
