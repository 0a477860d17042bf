package registry

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
)

// TestStreamFootprint is the memory gate per monitored stream: 10 000
// streams shaped like the benchmark's steady workload (SFD with window
// 100 and slot 50 on a 1 s stream, 151–200 back-dated arrivals each, so
// every window is full and a few slots have closed) must cost at most
// 2 KiB of heap each — detector, registry entry, wheel entry and name.
func TestStreamFootprint(t *testing.T) {
	const (
		streams  = 10_000
		interval = clock.Second
		budget   = 2048 // bytes per stream
	)
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
	r := New(clock.NewSim(epoch), func(string) detector.Detector { return core.New(cfg) },
		Options{MetricsMaxStreams: -1})
	before := heap()
	for i := 0; i < streams; i++ {
		name := fmt.Sprintf("node-%05d", i)
		n := 100 + 50 + 1 + i%50
		for j := 1; j <= n; j++ {
			at := epoch.Add(-clock.Duration(n-j+1) * interval)
			r.Observe(heartbeat.Arrival{From: name, Seq: uint64(j), Send: at, Recv: at, Inc: 1})
		}
	}
	after := heap()
	if r.Len() != streams {
		t.Fatalf("registered %d streams, want %d", r.Len(), streams)
	}
	runtime.KeepAlive(r)

	per := (float64(after) - float64(before)) / streams
	t.Logf("%.0f B of heap per stream", per)
	if per > budget {
		t.Fatalf("%.0f B of heap per stream, budget %d B", per, budget)
	}
}
