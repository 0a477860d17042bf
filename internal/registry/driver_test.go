package registry

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
)

// beat is one scheduled heartbeat arrival.
type beat struct {
	at   clock.Time
	peer string
	seq  uint64
}

// crashFleet schedules n streams beating every interval at random phases
// (seeded); stream i sends beats[i] heartbeats and then falls silent. It
// returns the arrivals in time order and each stream's last arrival.
func crashFleet(n int, interval clock.Duration, beats func(i int) int, seed int64) ([]beat, map[string]clock.Time) {
	rng := rand.New(rand.NewSource(seed))
	var out []beat
	last := make(map[string]clock.Time, n)
	for i := 0; i < n; i++ {
		peer := fmt.Sprintf("f/s%05d", i)
		phase := clock.Time(rng.Int63n(int64(interval)))
		for k := 0; k < beats(i); k++ {
			at := phase.Add(clock.Duration(k) * interval)
			out = append(out, beat{at, peer, uint64(k + 1)})
			last[peer] = at
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].peer < out[j].peer
	})
	return out, last
}

// TestVerdictAtFreshnessPoint crashes 2 000 streams at random phases under
// clock.Sim: every suspect lands in [τ, τ + 1 ms], every offline and
// eviction within 1 ms after its deadline, and no verdict comes early.
func TestVerdictAtFreshnessPoint(t *testing.T) {
	const (
		n            = 2000
		interval     = 100 * ms
		timeout      = 150 * ms
		offlineAfter = 500 * ms
		evictAfter   = 300 * ms
	)
	sim := clock.NewSim(0)
	r := New(sim, func(string) detector.Detector { return detector.NewFixed(timeout, 0) },
		Options{WheelTick: 10 * ms, MaxSilence: -1, OfflineAfter: offlineAfter, EvictAfter: evictAfter})
	sub := r.Subscribe(4 * n)
	r.Start()
	defer r.Stop()

	beats, last := crashFleet(n, interval, func(i int) int { return 3 + i%17 }, 1)
	for _, b := range beats {
		sim.AdvanceTo(b.at)
		r.Observe(heartbeat.Arrival{From: b.peer, Seq: b.seq, Send: b.at, Recv: b.at, Inc: 1})
	}
	sim.Advance(3 * clock.Second)

	within := func(ev Event, deadline clock.Time) {
		t.Helper()
		if lag := ev.At.Sub(deadline); lag < 0 || lag > ms {
			t.Fatalf("%s %s at %v, %v after its deadline %v; want [0, 1ms]", ev.Peer, ev.Type, ev.At, lag, deadline)
		}
	}
	suspectAt, offlineAt := make(map[string]clock.Time), make(map[string]clock.Time)
	var lagSum clock.Duration
	counts := make(map[EventType]int)
	for _, ev := range drain(sub) {
		counts[ev.Type]++
		tau := last[ev.Peer].Add(timeout)
		switch ev.Type {
		case EventSuspect:
			within(ev, tau)
			suspectAt[ev.Peer] = ev.At
			lagSum += ev.At.Sub(tau)
		case EventOffline:
			within(ev, tau.Add(offlineAfter))
			offlineAt[ev.Peer] = ev.At
		case EventEvicted:
			within(ev, offlineAt[ev.Peer].Add(evictAfter))
		default:
			t.Fatalf("unexpected %s for %s", ev.Type, ev.Peer)
		}
	}
	if counts[EventSuspect] != n || counts[EventOffline] != n || counts[EventEvicted] != n {
		t.Fatalf("events %v, want %d of each", counts, n)
	}
	if lagSum == 0 {
		t.Fatal("every verdict fired exactly at its deadline: the fine grid is gone")
	}
	c := r.Counters()
	if c.FineWakes == 0 || c.FineWakes > 3*n {
		t.Fatalf("%d fine wakes for %d streams' three verdicts each", c.FineWakes, n)
	}
}

// TestVerdictEdgeCases: a stream whose τ = 102.5 ms is on the fine heap
// after the 100 ms lookahead; act runs at 101 ms (or at the instant given)
// before the 103 ms fine wake. want lists the events up to 300 ms.
func TestVerdictEdgeCases(t *testing.T) {
	observe := func(seq, inc uint64) func(*Registry, clock.Time) {
		return func(r *Registry, now clock.Time) {
			r.Observe(heartbeat.Arrival{From: "p", Seq: seq, Send: now, Recv: now, Inc: inc})
		}
	}
	cases := []struct {
		name string
		at   clock.Duration
		act  func(r *Registry, now clock.Time)
		want string
	}{
		{"silent: fine wake after τ", 101 * ms, nil, "suspect@103ms"},
		{"heartbeat after the lookahead: no suspect, re-armed", 101 * ms, observe(2, 1), "suspect@201ms"},
		{"deregistered: stale gen dropped", 101 * ms, func(r *Registry, _ clock.Time) { r.Deregister("p") }, ""},
		{"re-registered: stale gen dropped", 101 * ms, func(r *Registry, now clock.Time) {
			r.Deregister("p")
			observe(1, 1)(r, now)
		}, "suspect@201ms"},
		{"incarnation bump: no suspect, re-armed", 101 * ms, observe(1, 2), "suspect@201ms"},
		{"manual tick before τ", 102 * ms, func(r *Registry, now clock.Time) { r.Tick(now) }, "suspect@103ms"},
		{"manual tick between τ and the wake", 102700 * clock.Microsecond, func(r *Registry, now clock.Time) { r.Tick(now) }, "suspect@102.7ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := clock.NewSim(0)
			r := New(sim, func(string) detector.Detector { return detector.NewFixed(100*ms, 0) },
				Options{WheelTick: 10 * ms, MaxSilence: -1, OfflineAfter: clock.Second, EvictAfter: -1})
			sub := r.Subscribe(16)
			r.Start()
			defer r.Stop()
			sim.AdvanceTo(clock.Time(2500 * clock.Microsecond))
			observe(1, 1)(r, sim.Now())
			sim.AdvanceTo(clock.Time(tc.at))
			if r.Counters().FineWakes != 0 || len(r.fine) != 1 {
				t.Fatalf("before act: %d fine wakes, %d heap entries; want 0 and 1", r.Counters().FineWakes, len(r.fine))
			}
			if tc.act != nil {
				tc.act(r, sim.Now())
			}
			sim.AdvanceTo(clock.Time(300 * ms))
			var got []string
			for _, ev := range drain(sub) {
				got = append(got, fmt.Sprintf("%s@%v", ev.Type, ev.At.Sub(0)))
			}
			if s := strings.Join(got, " "); s != tc.want {
				t.Fatalf("events %q, want %q", s, tc.want)
			}
			// A stale entry that was re-armed instead of dropped would
			// leave the stream a second live entry.
			if live := r.wheel.len() + len(r.fine); live != r.Len() {
				t.Fatalf("%d live wheel and heap entries for %d streams, want one each", live, r.Len())
			}
		})
	}
}

// stepClock is a Clock with only Now/After/Sleep that the test steps by
// hand: each After call is handed over on calls with the delay it asked
// for, and Now reads the instant the test last set. A non-nil requested
// sees each delay first, on the caller's goroutine.
type stepClock struct {
	now       atomic.Int64
	calls     chan stepCall
	requested func(d clock.Duration)
}

type stepCall struct {
	d  clock.Duration
	ch chan clock.Time
}

func (c *stepClock) Now() clock.Time      { return clock.Time(c.now.Load()) }
func (c *stepClock) Sleep(clock.Duration) { panic("stepClock: Sleep") }
func (c *stepClock) After(d clock.Duration) <-chan clock.Time {
	if c.requested != nil {
		c.requested(d)
	}
	ch := make(chan clock.Time, 1)
	c.calls <- stepCall{d, ch}
	return ch
}

// startStepped starts a registry of Fixed(timeout) streams, WheelTick
// tick, under its real driver goroutine on a stepClock. run(until) steps
// the clock wake by wake up to until, feeding each beat that arrives
// before the next wake; between steps the driver is parked on its
// pending After, so Observe and Counters never overlap a Tick. *afters
// counts the driver's After calls.
func startStepped(t *testing.T, timeout, tick clock.Duration, beats []beat) (r *Registry, run func(until clock.Time), afters *int) {
	clk := &stepClock{calls: make(chan stepCall, 1)}
	r = New(clk, func(string) detector.Detector { return detector.NewFixed(timeout, 0) },
		Options{WheelTick: tick})
	r.Start()
	t.Cleanup(r.Stop)
	var call stepCall
	afters = new(int)
	await := func() {
		select {
		case call = <-clk.calls:
			*afters++
		case <-time.After(5 * time.Second):
			t.Fatal("driver made no After call")
		}
	}
	await()
	run = func(until clock.Time) {
		for clk.Now() < until {
			at := clk.Now().Add(call.d)
			for len(beats) > 0 && beats[0].at <= at {
				b := beats[0]
				beats = beats[1:]
				clk.now.Store(int64(b.at))
				r.Observe(heartbeat.Arrival{From: b.peer, Seq: b.seq, Send: b.at, Recv: b.at, Inc: 1})
			}
			clk.now.Store(int64(at))
			call.ch <- at
			await()
		}
	}
	return r, run, afters
}

// TestDriverWakeRate runs the real driver goroutine on a clock with no
// callbacks. With a safety margin (timeout − interval) of at least
// WheelTick, healthy streams cost one coarse wake per tick and no fine
// wakes, each crash adds at most one fine wake, and every wake is one
// After. With a margin below WheelTick a healthy stream's entry can come
// out of the lookahead before its next beat is due, so healthy streams
// ride the fine heap too, and fine wakes approach one per grid point.
func TestDriverWakeRate(t *testing.T) {
	const (
		interval = 100 * ms
		tick     = 10 * ms
	)
	t.Run("margin at least WheelTick", func(t *testing.T) {
		const n, crashes = 10000, 50
		// Streams below crashes stop one second in, at staggered phases.
		beats, _ := crashFleet(n, interval, func(i int) int {
			if i < crashes {
				return 10
			}
			return 20
		}, 2)
		r, run, afters := startStepped(t, interval+5*tick, tick, beats)
		run(clock.Time(clock.Second))
		c := r.Counters()
		if c.CoarseWakes != uint64(clock.Second/tick) || c.FineWakes != 0 || c.Suspects != 0 {
			t.Fatalf("healthy second: %d coarse, %d fine wakes, %d suspects; want %d, 0, 0",
				c.CoarseWakes, c.FineWakes, c.Suspects, clock.Second/tick)
		}
		run(clock.Time(1900 * ms))
		c = r.Counters()
		if c.Suspects != crashes || c.FineWakes == 0 || c.FineWakes > crashes {
			t.Fatalf("%d staggered crashes: %d suspects, %d fine wakes; want %d and 1..%d",
				crashes, c.Suspects, c.FineWakes, crashes, crashes)
		}
		if wakes := int(c.CoarseWakes + c.FineWakes); *afters != wakes+1 {
			t.Fatalf("%d After calls for %d wakes, want one per wake plus the pending one", *afters, wakes)
		}
	})
	// A 5 ms margin: an entry comes out of the lookahead on the boundary
	// below τ, and the next beat is due 5 ms before τ. A stream whose τ
	// lies 5–10 ms past a boundary has not beaten yet, so it rides the
	// heap every interval, and the driver wakes on the grid points 6, 7,
	// 8 and 9 ms past each boundary (the one at 10 ms is the next coarse
	// wake). 1 000 streams at random phases occupy all of them: 100
	// coarse and 400 fine wakes a second, with no suspect. At a margin
	// near 0 it would be 900 fine wakes, the rate of a 1 ms WheelTick.
	t.Run("margin below WheelTick", func(t *testing.T) {
		const n, fineWakes = 1000, 400
		beats, _ := crashFleet(n, interval, func(int) int { return 20 }, 3)
		r, run, _ := startStepped(t, interval+tick/2, tick, beats)
		run(clock.Time(200 * ms)) // every stream armed
		before := r.Counters()
		run(clock.Time(1200 * ms))
		c := r.Counters()
		coarse, fine := c.CoarseWakes-before.CoarseWakes, c.FineWakes-before.FineWakes
		if c.Suspects != 0 || coarse != uint64(clock.Second/tick) || fine != fineWakes {
			t.Fatalf("healthy second: %d suspects, %d coarse, %d fine wakes; want 0, %d, %d",
				c.Suspects, coarse, fine, clock.Second/tick, fineWakes)
		}
	})
}

// TestDriverSleepsWholeGridSteps runs the real driver on a stepClock whose
// Tick takes cost (an OnTick hook moves the clock on). Each stream beats
// once at its phase and is then silent, so its τ = phase + 100 ms comes
// out of the lookahead at the 100 ms wake. Every fine wake the driver
// asks for must be a whole number of grid steps g = min(fineGrid,
// WheelTick), counted from the end of the Tick, or 1 ns when the heap's
// earliest deadline fell due while the Tick ran; every suspect must land
// in [τ, τ + max(g, cost + 1 ns)]. want pins the one stream's suspect.
func TestDriverSleepsWholeGridSteps(t *testing.T) {
	const timeout = 100 * ms
	const us = clock.Microsecond
	fleet := func(n int, seed int64) []clock.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]clock.Duration, n)
		for i := range out {
			out[i] = clock.Duration(rng.Int63n(int64(10 * ms)))
		}
		return out
	}
	cases := []struct {
		name       string
		tick, cost clock.Duration
		phases     []clock.Duration
		want       clock.Duration
	}{
		{"free Tick: whole ms from the wake", 10 * ms, 0, []clock.Duration{2500 * us}, 103 * ms},
		{"0.3 ms Tick: whole ms from its end", 10 * ms, 300 * us, []clock.Duration{2500 * us}, 103300 * us},
		{"due while the Tick runs: at once", 10 * ms, 600 * us, []clock.Duration{200 * us}, 100600*us + clock.Nanosecond},
		{"fleet, free Tick", 10 * ms, 0, fleet(300, 4), 0},
		{"fleet, 0.3 ms Tick", 10 * ms, 300 * us, fleet(300, 5), 0},
		{"fleet, 0.6 ms Tick", 10 * ms, 600 * us, fleet(300, 6), 0},
		{"fleet, 0.5 ms WheelTick, 0.3 ms Tick", 500 * us, 300 * us, fleet(300, 7), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			beats := make([]beat, len(tc.phases))
			for i, p := range tc.phases {
				beats[i] = beat{clock.Time(p), fmt.Sprintf("f/s%05d", i), 1}
			}
			sort.Slice(beats, func(i, j int) bool { return beats[i].at < beats[j].at })
			r, run, _ := startStepped(t, timeout, tc.tick, beats)
			sub := r.Subscribe(4 * len(beats))
			clk := r.clk.(*stepClock)
			g := min(fineGrid, tc.tick)
			var bad []string
			fine := 0
			// requested runs on the driver goroutine, right after wake
			// planned the delay it asks for.
			clk.requested = func(d clock.Duration) {
				if r.plannedCoarse {
					return
				}
				fine++
				due := len(r.fine) > 0 && !r.fine[0].at.After(clk.Now())
				if d%g != 0 && (d != clock.Nanosecond || !due) || d == clock.Nanosecond && !due {
					bad = append(bad, fmt.Sprintf("%v at %v (heap top due: %v)", d, clk.Now().Sub(0), due))
				}
			}
			if tc.cost > 0 {
				r.OnTick(func(clock.Time) { clk.now.Add(int64(tc.cost)) })
			}
			run(clock.Time(timeout + 20*ms))
			if len(bad) > 0 {
				t.Fatalf("%d of %d fine wakes not a whole %v step nor 1 ns for a due deadline: %v", len(bad), fine, g, bad)
			}
			evs := drain(sub)
			if len(evs) != len(beats) {
				t.Fatalf("%d events for %d silent streams", len(evs), len(beats))
			}
			tau := make(map[string]clock.Time, len(beats))
			for _, b := range beats {
				tau[b.peer] = b.at.Add(timeout)
			}
			for _, ev := range evs {
				if lag := ev.At.Sub(tau[ev.Peer]); ev.Type != EventSuspect || lag < 0 || lag > max(g, tc.cost+clock.Nanosecond) {
					t.Fatalf("%s %s at %v, τ %v: want a suspect within [0, %v] after τ",
						ev.Peer, ev.Type, ev.At.Sub(0), tau[ev.Peer].Sub(0), max(g, tc.cost+clock.Nanosecond))
				}
			}
			if tc.want != 0 && evs[0].At != clock.Time(tc.want) {
				t.Fatalf("suspect at %v, want %v", evs[0].At.Sub(0), tc.want)
			}
			if fine == 0 {
				t.Fatal("no fine wake: the case does not exercise the heap")
			}
		})
	}
}
