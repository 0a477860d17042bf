// Observability: the /metrics pipeline end to end, in one process. Three
// senders heartbeat over a lossy in-memory hub into a receiver feeding
// the sharded registry; the receiver registers its instruments into the
// registry's metric set, and after a couple of seconds the program
// scrapes the set the way Prometheus would — printing receiver counters,
// registry transition counters, per-shard occupancy, and the per-stream
// detector QoS gauges (margin, tuning state, last slot's TD/MR/QAP: the
// paper's Fig. 3 numbers, live).
//
// It also exercises the ground-truth detection-latency tap: one sender
// is killed and the kill instant handed to Registry.MarkFailure, so the
// registry's next suspect transition for that stream lands a sample in
// the sfd_detection_latency_seconds histogram — the same wiring the
// consortium experiment (internal/bench) uses to score its crashes.
package main

import (
	"fmt"
	"os"
	"time"

	sfd "repro"
)

func main() {
	// 5% datagram loss keeps the gap-filling and mistake paths busy.
	hub := sfd.NewHub(0.05, 2*time.Millisecond, 1)
	monEP := hub.Endpoint("monitor")
	defer monEP.Close()

	clk := sfd.NewRealClock()
	// Small slots so the self-tuner closes several feedback slots within
	// the demo window and the per-stream QoS gauges have data.
	factory := func(peer string) sfd.Detector {
		cfg := sfd.DefaultConfig()
		cfg.WindowSize = 64
		cfg.SlotHeartbeats = 50
		cfg.Targets = sfd.Targets{MaxTD: 200 * time.Millisecond, MaxMR: 2, MinQAP: 0.9}
		return sfd.NewSFD(cfg)
	}
	reg := sfd.NewRegistry(clk, factory, sfd.RegistryOptions{Shards: 4})
	reg.Start()
	defer reg.Stop()

	recv := sfd.NewHeartbeatReceiver(monEP, clk, reg.Observe)
	recv.InstrumentMetrics(reg.Metrics())
	recv.Start()

	// An application-level instrument rides on the same page.
	demoUptime := reg.Metrics().Gauge("demo_uptime_seconds", "Seconds this demo has been running.")

	var senders []*sfd.HeartbeatSender
	for _, name := range []string{"web-1", "web-2", "db-1"} {
		ep := hub.Endpoint(name)
		defer ep.Close()
		snd := sfd.NewHeartbeatSender(ep, "monitor", 10*time.Millisecond, clk)
		snd.Start()
		senders = append(senders, snd)
	}

	start := time.Now()
	fmt.Println("observability: 3 senders → lossy hub → receiver → registry; scraping in 2s...")
	time.Sleep(1 * time.Second)

	// Kill web-2 and hand the registry the ground-truth instant: when the
	// detector next suspects that stream, the injection→suspect latency is
	// observed into sfd_detection_latency_seconds.
	senders[1].Stop()
	reg.MarkFailure("web-2", clk.Now())
	fmt.Println("observability: killed web-2; waiting for the suspect transition...")
	deadline := time.Now().Add(3 * time.Second)
	for reg.DetectionLatency().Samples == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if dl := reg.DetectionLatency(); dl.Samples > 0 {
		fmt.Printf("observability: web-2 detected %.0fms after the kill\n", dl.Mean*1000)
	}

	time.Sleep(1 * time.Second)
	demoUptime.Set(time.Since(start).Seconds())
	for _, snd := range senders {
		snd.Stop()
	}

	fmt.Println("--- GET /metrics ---")
	if err := reg.Metrics().WritePrometheus(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scrape failed:", err)
		os.Exit(1)
	}
}
