package clock

import "sync"

// callbacks returns c's AfterFunc method when it has one, else nil. That
// is the one capability a Clock may offer beyond the interface: callbacks
// fired synchronously as simulated time passes (Sim). Loop and AfterFunc
// use it when present; any other Clock gets After, which is all the real
// clock and embedders' clocks provide.
func callbacks(c Clock) func(Duration, func(Time)) {
	if af, ok := c.(interface{ AfterFunc(Duration, func(Time)) }); ok {
		return af.AfterFunc
	}
	return nil
}

// AfterFunc calls fn once with the fire time, d after now on c: inside
// Advance under Sim, otherwise on its own goroutine when c.After(d) fires.
func AfterFunc(c Clock, d Duration, fn func(Time)) {
	if af := callbacks(c); af != nil {
		af(d, fn)
		return
	}
	go func() { fn(<-c.After(d)) }()
}

// Loop calls a function repeatedly on a Clock: every period (Every), or
// after whatever delay each call returns (Run). The zero value is ready to
// use. Start it at most once; a stopped Loop stays stopped.
//
// Under Sim the loop is a callback chain: the first callback is armed at
// start and each fire re-arms after fn returns, so fn runs inside Advance
// at exactly the instants it asked for. Under any other Clock one
// goroutine waits on c.After(delay), calls fn with the fire time and
// waits again, with exactly one After per wake: an embedder's After may
// be an uncancellable goroutine, so the loop never arms one it might
// abandon.
type Loop struct {
	mu      sync.Mutex
	stopped bool
	quit    chan struct{}  // goroutine branch: closed by Stop
	running sync.WaitGroup // the goroutine, and an fn in flight on either branch
}

// Every starts calling fn(now) every d on c: at d, 2d, … under Sim;
// elsewhere the period is d plus fn's run time.
func (l *Loop) Every(c Clock, d Duration, fn func(Time)) {
	l.Run(c, d, func(now Time) Duration { fn(now); return d })
}

// Run starts calling fn(now) on c, first d after now and then after each
// delay fn returns. A returned delay ≤ 0 is taken as d, so a loop can
// never spin at one instant inside Sim's Advance.
func (l *Loop) Run(c Clock, d Duration, fn func(Time) Duration) {
	clamped := func(now Time) Duration {
		if delay := fn(now); delay > 0 {
			return delay
		}
		return d
	}
	if af := callbacks(c); af != nil {
		l.arm(af, d, clamped)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return
	}
	l.quit = make(chan struct{})
	l.running.Add(1)
	go l.run(c, d, clamped, l.quit)
}

func (l *Loop) arm(af func(Duration, func(Time)), delay Duration, fn func(Time) Duration) {
	af(delay, func(now Time) {
		if next, ok := l.call(fn, now); ok {
			l.arm(af, next, fn)
		}
	})
}

func (l *Loop) run(c Clock, delay Duration, fn func(Time) Duration, quit <-chan struct{}) {
	defer l.running.Done()
	for {
		select {
		case <-quit:
			return
		case now := <-c.After(delay):
			var ok bool
			if delay, ok = l.call(fn, now); !ok {
				return
			}
		}
	}
}

// call runs fn(now) unless the loop has stopped, and reports fn's delay
// and whether it ran.
func (l *Loop) call(fn func(Time) Duration, now Time) (Duration, bool) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return 0, false
	}
	l.running.Add(1)
	l.mu.Unlock()
	defer l.running.Done()
	return fn(now), true
}

// Stop ends the loop. Once it returns no fn is running and none will
// start, on either branch, and the goroutine (if any) has exited. Stop is
// idempotent and safe to call before Every or Run. It waits for an
// in-flight fn, so it must not be called from inside fn.
func (l *Loop) Stop() {
	l.mu.Lock()
	l.stopped = true
	if l.quit != nil {
		close(l.quit)
		l.quit = nil
	}
	l.mu.Unlock()
	l.running.Wait()
}
