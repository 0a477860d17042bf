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

// Loop calls a function every period on a Clock. The zero value is ready
// to use. Call Every at most once; a stopped Loop stays stopped.
//
// Under Sim the loop is a callback chain: Every arms the first callback
// and each fire re-arms after fn returns, so fn runs inside Advance at d,
// 2d, … of simulated time. Under any other Clock one goroutine waits on
// c.After(d), calls fn with the fire time and waits again: the period is
// d plus fn's run time, with exactly one After per wake.
type Loop struct {
	mu      sync.Mutex
	stopped bool
	quit    chan struct{}  // goroutine branch: closed by Stop
	running sync.WaitGroup // the goroutine, and an fn in flight on either branch
}

// Every starts calling fn(now) every d on c.
func (l *Loop) Every(c Clock, d Duration, fn func(Time)) {
	if af := callbacks(c); af != nil {
		l.arm(af, d, fn)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return
	}
	l.quit = make(chan struct{})
	l.running.Add(1)
	go l.run(c, d, fn, l.quit)
}

func (l *Loop) arm(af func(Duration, func(Time)), d Duration, fn func(Time)) {
	af(d, func(now Time) {
		if l.call(fn, now) {
			l.arm(af, d, fn)
		}
	})
}

func (l *Loop) run(c Clock, d Duration, fn func(Time), quit <-chan struct{}) {
	defer l.running.Done()
	for {
		select {
		case <-quit:
			return
		case now := <-c.After(d):
			if !l.call(fn, now) {
				return
			}
		}
	}
}

// call runs fn(now) unless the loop has stopped, and reports whether it
// ran.
func (l *Loop) call(fn func(Time), now Time) bool {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return false
	}
	l.running.Add(1)
	l.mu.Unlock()
	defer l.running.Done()
	fn(now)
	return true
}

// Stop ends the loop. Once it returns no fn is running and none will
// start, on either branch, and the goroutine (if any) has exited. Stop is
// idempotent and safe to call before Every. It waits for an in-flight fn,
// so it must not be called from inside fn.
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
