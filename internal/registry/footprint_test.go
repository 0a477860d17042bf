package registry

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
)

// TestStreamFootprint is the memory gate per monitored stream, shaped
// like the benchmark's steady workload: SFD with window 100 and slot 50 on
// a 1 s stream, every arrival back-dated and on time. It measures heap per
// stream — detector, registry entry, wheel entry and name — in three
// shapes:
//   - "12 s run": 151–200 arrivals each, so every window is full and a few
//     slots have closed, as at the end of a benchmark run;
//   - "healed partition": the same, but three beats lost 20 from the end
//     and the stream healed with its sequence numbers carried on, so gap
//     filling puts a few misfits (escapes) in the window, as after a
//     partition in the benchmark's storm workload;
//   - "long-lived": 1 000 arrivals each, 20 closed slots, so the 16-entry
//     adjustment log is full, as on a monitor that has run for a while.
//
// Two more shapes run live, beating for 80 s with Tick driven every 10 ms,
// so the timer wheel holds what a running fleet leaves in it:
//   - "synchronized fleet": every stream beats at one shared instant, so
//     each second's re-arms all land in one slot and cascade together;
//   - "evenly phased": the same streams spread over the second's ticks.
func TestStreamFootprint(t *testing.T) {
	if size := unsafe.Sizeof(core.SFD{}); size > 320 {
		t.Errorf("core.SFD is %d B, past the 320 B size class", size)
	}
	if size := unsafe.Sizeof(Event{}); size != 56 {
		t.Errorf("Event is %d B, want 56 B (every subscription buffers its capacity of them)", size)
	}
	if size := unsafe.Sizeof(wheelBlock{}); size != 1008 {
		t.Errorf("wheelBlock is %d B, want 1008 B (31 entries in the 1 024 B size class)", size)
	}
	const interval = clock.Second
	twelve := func(i int) int { return 100 + 50 + 1 + i%50 }
	cases := []struct {
		name     string
		streams  int
		arrivals func(i int) int
		lost     func(n, j int) bool // whether beat j of n is lost
		budget   float64             // bytes per stream
	}{
		{"12 s run", 10_000, twelve, nil, 1200},
		{"healed partition", 10_000, twelve, func(n, j int) bool { return j > n-20 && j <= n-17 }, 1200},
		{"long-lived", 2_000, func(int) int { return 1000 }, nil, 2000},
	}
	cfg := core.DefaultConfig()
	cfg.WindowSize, cfg.SlotHeartbeats = 100, 50
	cfg.Interval, cfg.InitialMargin = interval, 250*ms
	cfg.Targets = core.Targets{MaxTD: interval + 1000*ms, MaxMR: 0.05, MinQAP: 0.99}

	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	epoch := clock.Time(3600 * clock.Second)
	check := func(name string, r *Registry, streams int, before uint64, budget float64) {
		t.Helper()
		after := heap()
		if r.Len() != streams {
			t.Fatalf("%s: registered %d streams, want %d", name, r.Len(), streams)
		}
		runtime.KeepAlive(r)
		per := (float64(after) - float64(before)) / float64(streams)
		t.Logf("%s: %.0f B of heap per stream", name, per)
		if per > budget {
			t.Errorf("%s: %.0f B of heap per stream, budget %.0f B", name, per, budget)
		}
	}
	for _, c := range cases {
		r := New(clock.NewSim(epoch), func(string) detector.Detector { return core.New(cfg) },
			Options{MetricsMaxStreams: -1})
		before := heap()
		for i := 0; i < c.streams; i++ {
			name := fmt.Sprintf("node-%05d", i)
			n := c.arrivals(i)
			for j := 1; j <= n; j++ {
				if c.lost != nil && c.lost(n, j) {
					continue
				}
				at := epoch.Add(-clock.Duration(n-j+1) * interval)
				r.Observe(heartbeat.Arrival{From: name, Seq: uint64(j), Send: at, Recv: at, Inc: 1})
			}
		}
		check(c.name, r, c.streams, before, c.budget)
	}

	const streams, tick, perBeat = 10_000, 10 * ms, int(interval / (10 * ms))
	for _, c := range []struct {
		name   string
		spread int // stream i beats on tick i%spread of each interval
	}{
		{"synchronized fleet", 1},
		{"evenly phased", perBeat},
	} {
		sim := clock.NewSim(epoch)
		r := New(sim, func(string) detector.Detector { return core.New(cfg) }, Options{MetricsMaxStreams: -1})
		before := heap()
		names := make([]string, streams)
		for i := range names {
			names[i] = fmt.Sprintf("node-%05d", i)
		}
		for k := 0; k < 80*perBeat; k++ {
			now := epoch.Add(clock.Duration(k) * tick)
			sim.AdvanceTo(now)
			for i := k % perBeat; i < streams && k%perBeat < c.spread; i += c.spread {
				r.Observe(heartbeat.Arrival{From: names[i], Seq: uint64(k/perBeat + 1), Send: now, Recv: now, Inc: 1})
			}
			r.Tick(now)
		}
		check(c.name, r, streams, before, 1100)
	}
}
