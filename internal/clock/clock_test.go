package clock

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(250 * Millisecond)
	if got := t1.Sub(t0); got != 250*Millisecond {
		t.Fatalf("Sub = %v, want 250ms", got)
	}
	if !t0.Before(t1) || t1.Before(t0) {
		t.Fatal("Before ordering wrong")
	}
	if !t1.After(t0) || t0.After(t1) {
		t.Fatal("After ordering wrong")
	}
	if got := t1.Seconds(); got != 0.25 {
		t.Fatalf("Seconds = %v, want 0.25", got)
	}
	if got := FromSeconds(0.25); got != t1 {
		t.Fatalf("FromSeconds = %v, want %v", got, t1)
	}
}

func TestTimeAddSubRoundTrip(t *testing.T) {
	f := func(base int64, delta int32) bool {
		t0 := Time(base)
		d := Duration(delta)
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRealClockMonotonic(t *testing.T) {
	c := NewReal()
	a := c.Now()
	time.Sleep(time.Millisecond)
	b := c.Now()
	if !b.After(a) {
		t.Fatalf("real clock did not advance: %v then %v", a, b)
	}
}

func TestRealClockAfter(t *testing.T) {
	c := NewReal()
	start := c.Now()
	fired := <-c.After(5 * time.Millisecond)
	if fired.Sub(start) < 4*time.Millisecond {
		t.Fatalf("After fired too early: %v", fired.Sub(start))
	}
}

func TestSimNowStartsAtOrigin(t *testing.T) {
	s := NewSim(Time(42))
	if s.Now() != 42 {
		t.Fatalf("Now = %d, want 42", s.Now())
	}
}

func TestSimAdvanceMovesTime(t *testing.T) {
	s := NewSim(0)
	s.Advance(3 * Second)
	if s.Now() != Time(3*Second) {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
	s.Advance(-Second) // negative advance is a no-op
	if s.Now() != Time(3*Second) {
		t.Fatal("negative Advance moved time")
	}
}

func TestSimAfterFiresInOrder(t *testing.T) {
	s := NewSim(0)
	var order []int
	s.AfterFunc(30*Millisecond, func(Time) { order = append(order, 3) })
	s.AfterFunc(10*Millisecond, func(Time) { order = append(order, 1) })
	s.AfterFunc(20*Millisecond, func(Time) { order = append(order, 2) })
	s.Advance(50 * Millisecond)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestSimEqualDeadlinesFIFO(t *testing.T) {
	s := NewSim(0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.AfterFunc(Millisecond, func(Time) { order = append(order, i) })
	}
	s.Advance(Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-deadline order = %v, want FIFO", order)
		}
	}
}

func TestSimAfterChannel(t *testing.T) {
	s := NewSim(0)
	ch := s.After(100 * Millisecond)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	s.Advance(100 * Millisecond)
	got := <-ch
	if got != Time(100*Millisecond) {
		t.Fatalf("fire time = %v, want 100ms", got)
	}
}

func TestSimAfterZeroFiresImmediately(t *testing.T) {
	s := NewSim(Time(7))
	got := <-s.After(0)
	if got != 7 {
		t.Fatalf("fire time = %v, want 7", got)
	}
}

func TestSimCallbackSchedulesCallback(t *testing.T) {
	s := NewSim(0)
	var times []Time
	var tick func(Time)
	tick = func(now Time) {
		times = append(times, now)
		if len(times) < 4 {
			s.AfterFunc(10*Millisecond, tick)
		}
	}
	s.AfterFunc(10*Millisecond, tick)
	s.Advance(100 * Millisecond)
	if len(times) != 4 {
		t.Fatalf("got %d ticks, want 4", len(times))
	}
	for i, at := range times {
		want := Time((i + 1) * 10 * int(Millisecond))
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestSimAdvanceToPastIsNoop(t *testing.T) {
	s := NewSim(Time(Second))
	s.AdvanceTo(Time(Millisecond))
	if s.Now() != Time(Second) {
		t.Fatal("AdvanceTo moved time backwards")
	}
}

func TestSimRunUntilIdle(t *testing.T) {
	s := NewSim(0)
	count := 0
	s.AfterFunc(Second, func(Time) { count++ })
	s.AfterFunc(2*Second, func(Time) { count++ })
	fired := s.RunUntilIdle()
	if fired != 2 || count != 2 {
		t.Fatalf("fired=%d count=%d, want 2,2", fired, count)
	}
	if s.Now() != Time(2*Second) {
		t.Fatalf("Now = %v, want 2s", s.Now())
	}
	if s.PendingWaiters() != 0 {
		t.Fatal("waiters remain after RunUntilIdle")
	}
}

func TestSimJumpFiresWaitersAtLanding(t *testing.T) {
	s := NewSim(0)
	var firedAt Time = -1
	s.AfterFunc(10*Millisecond, func(now Time) { firedAt = now })
	s.Jump(time.Second)
	if firedAt != Time(time.Second) {
		t.Fatalf("jumped waiter fired at %v, want 1s (landing instant)", firedAt)
	}
}

func TestSimSleepUnblocksOnAdvance(t *testing.T) {
	s := NewSim(0)
	done := make(chan struct{})
	go func() {
		s.Sleep(50 * Millisecond)
		close(done)
	}()
	// Wait for the sleeper to register its waiter.
	for s.PendingWaiters() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	s.Advance(50 * Millisecond)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep never returned after Advance")
	}
}

func TestSimAdvanceFiresOnlyDueWaiters(t *testing.T) {
	s := NewSim(0)
	fired := 0
	s.AfterFunc(10*Millisecond, func(Time) { fired++ })
	s.AfterFunc(30*Millisecond, func(Time) { fired++ })
	s.Advance(20 * Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.PendingWaiters() != 1 {
		t.Fatalf("pending = %d, want 1", s.PendingWaiters())
	}
}

func TestSimManyWaitersProperty(t *testing.T) {
	// Property: regardless of insertion order, waiters fire in
	// nondecreasing deadline order.
	f := func(deadlines []uint16) bool {
		s := NewSim(0)
		var fired []Time
		for _, d := range deadlines {
			s.AfterFunc(Duration(d)*Microsecond, func(at Time) {
				fired = append(fired, at)
			})
		}
		s.RunUntilIdle()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(deadlines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// afterClock is a Clock with only Now/After/Sleep, the shape of an
// embedder's clock. Each After call hands its channel to the test on
// calls; the test fires it with wake.
type afterClock struct {
	calls chan chan Time
	n     atomic.Int64 // After calls so far
	last  atomic.Int64 // the delay the latest After call asked for
}

func newAfterClock() *afterClock { return &afterClock{calls: make(chan chan Time, 16)} }

func (c *afterClock) Now() Time      { return 0 }
func (c *afterClock) Sleep(Duration) { panic("afterClock: Sleep") }
func (c *afterClock) After(d Duration) <-chan Time {
	c.n.Add(1)
	c.last.Store(int64(d))
	ch := make(chan Time, 1)
	c.calls <- ch
	return ch
}

// wake waits for the next After call and fires it at the given instant.
func (c *afterClock) wake(t *testing.T, at Time) {
	t.Helper()
	recv(t, c.calls) <- at
}

// recv returns the next value on ch, failing the test if none comes.
func recv[T any](t *testing.T, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting on a channel")
		panic("unreachable")
	}
}

// assertStopWaits stops l while its fn is parked until release is closed
// and checks that Stop returns only after fn has.
func assertStopWaits(t *testing.T, l *Loop, release chan struct{}, returned *atomic.Bool) {
	t.Helper()
	stopped := make(chan bool)
	go func() {
		l.Stop()
		stopped <- returned.Load()
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while fn was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if !recv(t, stopped) {
		t.Fatal("Stop returned before fn did")
	}
}

// parkedFn returns an fn that runs once, signalling entered and then
// waiting for release, and the flag it sets on return.
func parkedFn() (fn func(Time), entered, release chan struct{}, returned *atomic.Bool) {
	entered, release, returned = make(chan struct{}), make(chan struct{}), new(atomic.Bool)
	return func(Time) {
		close(entered) // a second call panics
		<-release
		returned.Store(true)
	}, entered, release, returned
}

func TestLoopSimFiresEveryPeriod(t *testing.T) {
	s := NewSim(0)
	var l Loop
	var got []Time
	l.Every(s, 10*Millisecond, func(now Time) { got = append(got, now) })
	s.Advance(35 * Millisecond)
	if want := []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(30 * Millisecond)}; len(got) != 3 ||
		got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("fires at %v, want %v", got, want)
	}
	l.Stop()
	l.Stop() // idempotent
	s.Advance(100 * Millisecond)
	if len(got) != 3 {
		t.Fatalf("fired after Stop: %v", got)
	}
	if s.PendingWaiters() != 0 {
		t.Fatalf("%d waiters left after the stopped chain fired", s.PendingWaiters())
	}
}

func TestLoopSimStopBeforeEvery(t *testing.T) {
	s := NewSim(0)
	var l Loop
	l.Stop()
	fired := 0
	l.Every(s, 10*Millisecond, func(Time) { fired++ })
	s.Advance(100 * Millisecond)
	if fired != 0 {
		t.Fatalf("a Loop stopped before Every fired %d times", fired)
	}
}

func TestLoopSimStopWaitsForFn(t *testing.T) {
	s := NewSim(0)
	var l Loop
	fn, entered, release, returned := parkedFn()
	l.Every(s, Second, fn)
	go s.Advance(Second) // fn runs inside Advance, on that goroutine
	recv(t, entered)
	assertStopWaits(t, &l, release, returned)
}

func TestLoopAfterClockPassesFireTime(t *testing.T) {
	c := newAfterClock()
	var l Loop
	got := make(chan Time, 1)
	l.Every(c, Second, func(now Time) { got <- now })
	defer l.Stop()
	for _, at := range []Time{7, 19, 23} {
		c.wake(t, at)
		if now := recv(t, got); now != at {
			t.Fatalf("fn got %v, want the After fire time %v", now, at)
		}
	}
}

// TestLoopAfterClockOneAfterPerWake pins the cadence an uncancellable
// After needs: every extra call would leave a goroutine behind.
func TestLoopAfterClockOneAfterPerWake(t *testing.T) {
	c := newAfterClock()
	var l Loop
	ran := make(chan struct{}, 1)
	l.Every(c, Second, func(Time) { ran <- struct{}{} })
	const wakes = 5
	for i := 0; i < wakes; i++ {
		c.wake(t, Time(i+1))
		recv(t, ran)
	}
	recv(t, c.calls) // the wait for the next wake
	l.Stop()
	if n := c.n.Load(); n != wakes+1 {
		t.Fatalf("%d After calls for %d wakes, want %d", n, wakes, wakes+1)
	}
}

func TestLoopAfterClockStopWaitsForFn(t *testing.T) {
	c := newAfterClock()
	var l Loop
	fn, entered, release, returned := parkedFn()
	l.Every(c, Second, fn)
	c.wake(t, 1)
	recv(t, entered)
	assertStopWaits(t, &l, release, returned)
}

func TestAfterFuncFiresOnceSim(t *testing.T) {
	s := NewSim(0)
	var got []Time
	AfterFunc(s, 10*Millisecond, func(now Time) { got = append(got, now) })
	s.Advance(100 * Millisecond)
	if len(got) != 1 || got[0] != Time(10*Millisecond) {
		t.Fatalf("fires at %v, want [10ms]", got)
	}
}

func TestAfterFuncFiresOnceAfterClock(t *testing.T) {
	c := newAfterClock()
	got := make(chan Time, 2)
	AfterFunc(c, Second, func(now Time) { got <- now })
	c.wake(t, 42)
	if now := recv(t, got); now != 42 {
		t.Fatalf("fn got %v, want 42", now)
	}
	if n := c.n.Load(); n != 1 || len(got) != 0 {
		t.Fatalf("%d After calls, %d extra fires; want 1 and 0", n, len(got))
	}
}

// delays returns an fn for Run that records each call's instant and
// returns the given delays in turn (then the last one forever).
func delays(got *[]Time, ds ...Duration) func(Time) Duration {
	return func(now Time) Duration {
		*got = append(*got, now)
		return ds[min(len(*got), len(ds))-1]
	}
}

func TestLoopRunSimFiresAtReturnedDelays(t *testing.T) {
	s := NewSim(0)
	var l Loop
	var got []Time
	l.Run(s, 10*Millisecond, delays(&got, 3*Millisecond, 7*Millisecond, Millisecond, 20*Millisecond))
	s.Advance(45 * Millisecond)
	want := []Time{10, 13, 20, 21, 41}
	if len(got) != len(want) {
		t.Fatalf("fires at %v, want %v ms", got, want)
	}
	for i := range want {
		if got[i] != want[i]*Time(Millisecond) {
			t.Fatalf("fires at %v, want %v ms", got, want)
		}
	}
	l.Stop()
	s.Advance(100 * Millisecond)
	if len(got) != len(want) || s.PendingWaiters() != 0 {
		t.Fatalf("fired after Stop (%d fires) or left %d waiters", len(got), s.PendingWaiters())
	}
}

// TestLoopRunClampsNonPositiveDelay: a delay ≤ 0 is taken as d, so fn
// cannot spin at one simulated instant.
func TestLoopRunClampsNonPositiveDelay(t *testing.T) {
	for _, ret := range []Duration{0, -Second} {
		s := NewSim(0)
		var l Loop
		var got []Time
		l.Run(s, 10*Millisecond, delays(&got, ret))
		s.Advance(35 * Millisecond)
		l.Stop()
		if len(got) != 3 || got[0] != Time(10*Millisecond) || got[2] != Time(30*Millisecond) {
			t.Fatalf("fn returning %v: fires at %v, want every 10ms", ret, got)
		}
	}
	c := newAfterClock()
	var l Loop
	ran := make(chan struct{}, 1)
	l.Run(c, Second, func(Time) Duration { ran <- struct{}{}; return 0 })
	c.wake(t, 1)
	recv(t, ran)
	recv(t, c.calls)
	l.Stop()
	if d := Duration(c.last.Load()); d != Second {
		t.Fatalf("After(%v) after fn returned 0, want After(%v)", d, Second)
	}
}

// TestLoopRunAfterClockOneAfterPerWake: one After per wake, each asking
// for the delay fn returned.
func TestLoopRunAfterClockOneAfterPerWake(t *testing.T) {
	c := newAfterClock()
	var l Loop
	ran := make(chan struct{}, 1)
	next := []Duration{3 * Millisecond, 9 * Millisecond, Millisecond, 4 * Millisecond}
	i := 0
	l.Run(c, Second, func(Time) Duration { d := next[i]; i++; ran <- struct{}{}; return d })
	first := recv(t, c.calls)
	if d := Duration(c.last.Load()); d != Second {
		t.Fatalf("first After(%v), want After(%v)", d, Second)
	}
	first <- 1
	for w := range next {
		recv(t, ran)
		ch := recv(t, c.calls)
		if d := Duration(c.last.Load()); d != next[w] {
			t.Fatalf("wake %d: After(%v), want the returned %v", w, d, next[w])
		}
		if w < len(next)-1 {
			ch <- Time(w + 2)
		}
	}
	l.Stop()
	if n := c.n.Load(); n != int64(len(next)+1) {
		t.Fatalf("%d After calls for %d wakes, want %d", n, len(next), len(next)+1)
	}
}

func TestLoopRunStopContract(t *testing.T) {
	t.Run("before Run", func(t *testing.T) {
		s := NewSim(0)
		var l Loop
		l.Stop()
		fired := 0
		l.Run(s, 10*Millisecond, func(Time) Duration { fired++; return Millisecond })
		s.Advance(100 * Millisecond)
		c := newAfterClock()
		l.Run(c, Second, func(Time) Duration { fired++; return Second })
		if fired != 0 || c.n.Load() != 0 {
			t.Fatalf("a Loop stopped before Run fired %d times, made %d After calls", fired, c.n.Load())
		}
	})
	t.Run("sim waits for fn", func(t *testing.T) {
		s := NewSim(0)
		var l Loop
		fn, entered, release, returned := parkedFn()
		l.Run(s, Second, func(now Time) Duration { fn(now); return Second })
		go s.Advance(Second)
		recv(t, entered)
		assertStopWaits(t, &l, release, returned)
	})
	t.Run("after clock waits for fn", func(t *testing.T) {
		c := newAfterClock()
		var l Loop
		fn, entered, release, returned := parkedFn()
		l.Run(c, Second, func(now Time) Duration { fn(now); return Second })
		c.wake(t, 1)
		recv(t, entered)
		assertStopWaits(t, &l, release, returned)
	})
}
