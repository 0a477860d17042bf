package registry

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
)

// sfdFactory builds self-tuning detectors with slots small enough that a
// short test closes several feedback slots, so the per-stream QoS gauges
// (margin / state / TD / MR / QAP) have data to expose.
func sfdFactory(string) detector.Detector {
	return core.New(core.Config{
		WindowSize:     8,
		Interval:       10 * ms,
		SlotHeartbeats: 10,
		Targets:        core.Targets{MaxTD: 100 * ms, MaxMR: 5, MinQAP: 0.5},
	})
}

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(body)
}

// TestMetricsExposition drives enough heartbeats through a sim-clock
// registry for the self-tuner to close feedback slots, then scrapes
// /metrics off the registry's own HTTP handler and checks that every
// layer shows up: aggregate counters, per-shard occupancy, and the
// per-stream detector QoS gauges.
func TestMetricsExposition(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, sfdFactory, Options{Shards: 4})
	const beats = 35
	for i := 0; i < beats; i++ {
		send := clock.Time(i) * clock.Time(10*ms)
		r.Observe(heartbeat.Arrival{From: "p1", Seq: uint64(i), Send: send, Recv: send.Add(ms)})
	}
	page := scrape(t, r)

	for _, want := range []string{
		"# TYPE sfd_registry_heartbeats_total counter",
		"sfd_registry_heartbeats_total 35",
		"sfd_registry_streams 1",
		"sfd_registry_wheel_rearms_total",
		"sfd_registry_wheel_blocks{state=\"in_use\"} ",
		"sfd_registry_wheel_blocks{state=\"free\"} 0", // nothing has fired yet
		"sfd_registry_shard_streams{shard=\"0\"}",
		"sfd_registry_shard_streams{shard=\"3\"}",
		"# TYPE sfd_stream_qap gauge",
		"sfd_stream_qap{peer=\"p1\"}",
		"sfd_stream_margin_seconds{peer=\"p1\"}",
		"sfd_stream_td_seconds{peer=\"p1\"}",
		"sfd_stream_mr_per_s{peer=\"p1\"}",
		"sfd_stream_suspicion{peer=\"p1\"}",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("page:\n%s", page)
	}
}

// TestMetricsFanoutSeries: the sfd_fanout_* series track the topic trie
// and interest-routed delivery accounting.
func TestMetricsFanoutSeries(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, sfdFactory, Options{Shards: 2})

	sub, err := r.SubscribeTopic("eu/+/web", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Two matches into a 1-slot buffer: the second displaces the first.
	r.Bus().Publish(Event{Type: EventSuspect, Peer: "eu/zrh/web", At: 1})
	r.Bus().Publish(Event{Type: EventSuspect, Peer: "eu/ams/web", At: 2})
	r.Bus().Publish(Event{Type: EventSuspect, Peer: "us/iad/web", At: 3}) // no match

	page := scrape(t, r)
	for _, want := range []string{
		"# TYPE sfd_fanout_trie_nodes gauge",
		"sfd_fanout_trie_nodes 3",
		"sfd_fanout_subscriptions 1",
		"# TYPE sfd_fanout_matches_total counter",
		"sfd_fanout_matches_total 2",
		"sfd_fanout_drops_total 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("page:\n%s", page)
	}
}

// TestMetricsMaxStreams: the per-stream sampler honors the cap and
// reports how many streams it skipped instead of truncating silently.
func TestMetricsMaxStreams(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, sfdFactory, Options{Shards: 2, MetricsMaxStreams: 2})
	for _, p := range []string{"a", "b", "c", "d", "e"} {
		r.Observe(heartbeat.Arrival{From: p, Seq: 1, Send: sim.Now(), Recv: sim.Now().Add(ms)})
	}
	page := scrape(t, r)
	if got := strings.Count(page, "sfd_stream_suspicion{"); got != 2 {
		t.Errorf("per-stream suspicion series = %d, want 2 (capped)", got)
	}
	if !strings.Contains(page, "sfd_registry_metrics_streams_skipped 3") {
		t.Errorf("missing skipped-streams gauge; page:\n%s", page)
	}
}

// TestMetricsPerStreamDisabled: a negative cap removes the per-stream
// sampler entirely while the aggregate series remain.
func TestMetricsPerStreamDisabled(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, sfdFactory, Options{MetricsMaxStreams: -1})
	r.Observe(heartbeat.Arrival{From: "p1", Seq: 1, Send: sim.Now(), Recv: sim.Now().Add(ms)})
	page := scrape(t, r)
	if strings.Contains(page, "sfd_stream_") {
		t.Errorf("per-stream series present despite MetricsMaxStreams<0")
	}
	if !strings.Contains(page, "sfd_registry_heartbeats_total 1") {
		t.Errorf("aggregate counters missing; page:\n%s", page)
	}
}

// TestMetricsConcurrentScrape hammers the instrumented ingest path from
// several goroutines while scrapers render the page and the wheel driver
// runs — the -race proof that instrumentation added no unsynchronized
// state to the hot path.
func TestMetricsConcurrentScrape(t *testing.T) {
	r := New(nil, sfdFactory, Options{Shards: 4, WheelTick: ms})
	r.Start()
	defer r.Stop()
	set := r.Metrics()

	const beats = 500
	peers := []string{"w0", "w1", "w2", "w3"}
	clk := clock.NewReal()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = set.WritePrometheus(io.Discard)
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for _, peer := range peers {
		writers.Add(1)
		go func(peer string) {
			defer writers.Done()
			for i := 0; i < beats; i++ {
				now := clk.Now()
				r.Observe(heartbeat.Arrival{From: peer, Seq: uint64(i), Send: now, Recv: now})
			}
		}(peer)
	}
	writers.Wait()
	close(stop)
	scrapers.Wait()

	if got := r.Counters().Heartbeats; got != uint64(len(peers)*beats) {
		t.Fatalf("heartbeats = %d, want %d", got, len(peers)*beats)
	}
	if !strings.Contains(scrape(t, r), "sfd_registry_heartbeats_total 2000") {
		t.Fatalf("final scrape missing total")
	}
}
