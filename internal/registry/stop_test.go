package registry

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// afterClock is a Clock with only Now/After/Sleep, the shape of an
// embedder's clock; the test fires each After channel by hand.
type afterClock struct{ calls chan chan clock.Time }

func (c *afterClock) Now() clock.Time      { return 0 }
func (c *afterClock) Sleep(clock.Duration) { panic("afterClock: Sleep") }
func (c *afterClock) After(clock.Duration) <-chan clock.Time {
	ch := make(chan clock.Time, 1)
	c.calls <- ch
	return ch
}

// TestStopWaitsForInFlightTick: Stop returns only after a driver Tick in
// flight has finished, so a manual Tick afterwards cannot race it.
func TestStopWaitsForInFlightTick(t *testing.T) {
	clk := &afterClock{calls: make(chan chan clock.Time, 4)}
	r := New(clk, nil, Options{WheelTick: 10 * ms})
	entered, release := make(chan struct{}), make(chan struct{})
	var hookReturned atomic.Bool
	first := true
	r.OnTick(func(clock.Time) {
		if !first {
			return
		}
		first = false
		close(entered)
		<-release
		hookReturned.Store(true)
	})
	r.Start()
	(<-clk.calls) <- clock.Time(10 * ms)
	<-entered

	stopped := make(chan bool)
	go func() {
		r.Stop()
		stopped <- hookReturned.Load()
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while the driver's Tick was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if !<-stopped {
		t.Fatal("Stop returned before the in-flight Tick's hook did")
	}
	r.Tick(clock.Time(20 * ms)) // by hand, as Stop's doc allows
}
