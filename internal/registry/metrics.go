package registry

import (
	"strconv"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/persist"
)

// tuned is implemented by self-tuning detectors (core.SFD) whose QoS
// feedback loop the metrics layer exposes per stream: the current safety
// margin, the tuning state, and the last slot's measured TD/MR/QAP — the
// live form of the paper's Fig. 3 evaluation.
type tuned interface {
	Margin() clock.Duration
	State() core.State
	LastAdjustment() (core.Adjustment, bool)
}

// Metrics returns the registry's instrument set, building it on first
// call. The set holds CounterFunc/GaugeFunc views over the atomics the
// registry already maintains — instrumentation adds nothing to the ingest
// path — plus scrape-time samplers for per-shard occupancy and per-stream
// detector QoS. Embedders (sfdmon) register receiver and gossip
// instruments into the same set so one /metrics page covers the pipeline.
func (r *Registry) Metrics() *metrics.Set {
	r.metricsOnce.Do(func() {
		set := metrics.NewSet()
		set.CounterFunc("sfd_registry_heartbeats_total",
			"Heartbeat arrivals accepted by the registry.", r.heartbeats.Load)
		set.CounterFunc("sfd_registry_stale_total",
			"Arrivals dropped as duplicate, reordered, or from a dead incarnation.", r.stale.Load)
		set.CounterFunc("sfd_registry_registered_total",
			"Streams ever registered (explicitly or by first heartbeat).", r.registered.Load)
		set.CounterFunc("sfd_registry_suspects_total",
			"Trust to suspect transitions fired by the timer wheel.", r.suspects.Load)
		set.CounterFunc("sfd_registry_trusts_total",
			"Suspect to trust recoveries (a heartbeat disproved the suspicion).", r.trusts.Load)
		set.CounterFunc("sfd_registry_offlines_total",
			"Suspect to offline transitions.", r.offlines.Load)
		set.CounterFunc("sfd_registry_evictions_total",
			"Offline streams removed from the table.", r.evictions.Load)
		set.CounterFunc("sfd_registry_cannot_satisfy_total",
			"Self-tuner infeasibility reports (Algorithm 1 line 14).", r.cannotSatisfy.Load)
		set.CounterFunc("sfd_registry_wheel_rearms_total",
			"Timer-wheel entries scheduled (first arms plus deadline moves).", r.rearms.Load)
		set.CounterFunc("sfd_registry_bus_published_total",
			"Events published on the failure-event bus.",
			func() uint64 { pub, _ := r.bus.Stats(); return pub })
		set.CounterFunc("sfd_registry_bus_dropped_total",
			"Events dropped across subscribers by drop-oldest backpressure.",
			func() uint64 { _, drop := r.bus.Stats(); return drop })
		set.GaugeFunc("sfd_registry_streams",
			"Streams currently registered.",
			func() float64 { return float64(r.Len()) })
		set.GaugeFunc("sfd_registry_wheel_entries",
			"Live timer-wheel entries, including lazily-invalidated ones.",
			func() float64 { return float64(r.wheel.len()) })
		set.CounterFunc(metrics.Name("sfd_registry_driver_wakes_total", "kind", "coarse"),
			"Wheel driver wakes, on a WheelTick boundary (coarse) or for a looked-ahead deadline (fine).",
			r.coarseWakes.Load)
		set.CounterFunc(metrics.Name("sfd_registry_driver_wakes_total", "kind", "fine"), "", r.fineWakes.Load)
		r.lateness.Store(set.Histogram("sfd_registry_driver_lateness_seconds",
			"Wheel driver wake instant minus the instant it planned to wake at.", nil))
		set.GaugeFunc("sfd_registry_bus_subscribers",
			"Current failure-event bus subscribers.",
			func() float64 { return float64(r.bus.Subscribers()) })
		set.GaugeFunc("sfd_fanout_trie_nodes",
			"Live nodes in the topic-subscription trie.",
			func() float64 { return float64(r.bus.FanoutStats().Nodes) })
		set.GaugeFunc("sfd_fanout_subscriptions",
			"Live topic (filtered) subscriptions.",
			func() float64 { return float64(r.bus.FanoutStats().Subscriptions) })
		set.CounterFunc("sfd_fanout_matches_total",
			"Topic-routed deliveries (events times matching subscriptions).",
			func() uint64 { return r.bus.FanoutStats().Matches })
		set.CounterFunc("sfd_fanout_drops_total",
			"Events lost by topic subscriptions to drop-oldest backpressure.",
			r.bus.TopicDropped)
		set.GaugeFunc("sfd_watch_connections",
			"Live /watch streaming connections.",
			func() float64 { return float64(r.watchConns.Load()) })
		set.CounterFunc("sfd_watch_rejected_total",
			"/watch requests refused because WatchMaxConns was saturated.",
			r.watchRejected.Load)
		r.detLatHist.Store(set.Histogram("sfd_detection_latency_seconds",
			"Ground-truth injection-to-suspect latency for peers marked via MarkFailure.",
			DetectionLatencyBuckets))
		set.GaugeFunc("sfd_detection_marks_pending",
			"Injected failures marked but not yet detected.",
			func() float64 { return float64(r.markCount.Load()) })
		set.Sampled(r.sampleWheelBlocks)
		set.Sampled(r.sampleDetectionLatency)
		set.Sampled(r.sampleShards)
		if r.opts.MetricsMaxStreams > 0 {
			set.Sampled(r.sampleStreams)
		}
		if r.opts.StateDir != "" {
			r.instrumentPersist(set)
		}
		r.metricsSet = set
	})
	return r.metricsSet
}

// instrumentPersist registers the sfd_persist_* series. The closures
// read through the checkpointer's atomic pointer so registration order
// relative to Start does not matter (zeros before the checkpointer
// exists).
func (r *Registry) instrumentPersist(set *metrics.Set) {
	ck := func(read func(*persist.Checkpointer) uint64) func() uint64 {
		return func() uint64 {
			if c := r.ckpt.Load(); c != nil {
				return read(c)
			}
			return 0
		}
	}
	set.CounterFunc("sfd_persist_snapshots_total",
		"Full state snapshots written.", ck((*persist.Checkpointer).Snapshots))
	set.CounterFunc("sfd_persist_deltas_total",
		"Incremental delta records appended to the journal.", ck((*persist.Checkpointer).Deltas))
	set.CounterFunc("sfd_persist_rotations_total",
		"Journal rotations (full snapshot supersedes the delta journal).", ck((*persist.Checkpointer).Rotations))
	set.CounterFunc("sfd_persist_errors_total",
		"Snapshot or journal write failures.", ck((*persist.Checkpointer).Errors))
	set.GaugeFunc("sfd_persist_snapshot_age_seconds",
		"Seconds since the last full snapshot was written (-1 before the first).",
		func() float64 {
			if c := r.ckpt.Load(); c != nil {
				return c.SnapshotAgeSeconds()
			}
			return -1
		})
	set.GaugeFunc("sfd_persist_snapshot_bytes",
		"Encoded size of the last full snapshot.", func() float64 {
			if c := r.ckpt.Load(); c != nil {
				return float64(c.SnapshotBytes())
			}
			return 0
		})
	set.GaugeFunc("sfd_persist_restored_streams",
		"Streams recovered by the warm restart (0 on cold start).",
		func() float64 { n, _ := r.RestoredStreams(); return float64(n) })
}

// sampleDetectionLatency emits scrape-time quantile gauges from the
// stats.Histogram behind the ground-truth tap — the tail summary a
// dashboard wants without reconstructing it from cumulative buckets.
func (r *Registry) sampleDetectionLatency(em *metrics.Emitter) {
	d := r.DetectionLatency()
	if d.Samples == 0 {
		return
	}
	em.Gauge("sfd_detection_latency_p50_seconds", d.P50)
	em.Gauge("sfd_detection_latency_p95_seconds", d.P95)
	em.Gauge("sfd_detection_latency_p99_seconds", d.P99)
	em.Gauge("sfd_detection_latency_mean_seconds", d.Mean)
}

// sampleWheelBlocks emits the timer wheel's pool blocks held by slots and
// idle on its free list, read together under the wheel's lock: their sum
// times the 1 KiB block is the wheel's memory, which never shrinks below
// its peak.
func (r *Registry) sampleWheelBlocks(em *metrics.Emitter) {
	inUse, free := r.wheel.blockStats()
	em.Gauge(metrics.Name("sfd_registry_wheel_blocks", "state", "in_use"), float64(inUse))
	em.Gauge(metrics.Name("sfd_registry_wheel_blocks", "state", "free"), float64(free))
}

// sampleShards emits one occupancy gauge per lock stripe — the load
// balance FNV hashing should keep near-uniform.
func (r *Registry) sampleShards(em *metrics.Emitter) {
	for i, sh := range r.shards {
		em.Gauge(metrics.Name("sfd_registry_shard_streams", "shard", strconv.Itoa(i)),
			float64(sh.len()))
	}
}

// sampleStreams emits per-stream detector gauges for up to
// Options.MetricsMaxStreams streams: the accrual suspicion level and the
// lifecycle phase for every detector, plus margin / tuning state / last
// measured slot QoS for self-tuning ones. Streams beyond the cap are
// counted in sfd_registry_metrics_streams_skipped rather than silently
// dropped.
func (r *Registry) sampleStreams(em *metrics.Emitter) {
	now := r.clk.Now()
	budget := r.opts.MetricsMaxStreams
	skipped := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		for peer, st := range sh.streams {
			if budget <= 0 {
				skipped++
				continue
			}
			budget--
			em.Gauge(metrics.Name("sfd_stream_suspicion", "peer", peer), r.level(st, now))
			em.Gauge(metrics.Name("sfd_stream_phase", "peer", peer), float64(st.phase))
			td, ok := st.det.(tuned)
			if !ok {
				continue
			}
			em.Gauge(metrics.Name("sfd_stream_margin_seconds", "peer", peer),
				td.Margin().Seconds())
			em.Gauge(metrics.Name("sfd_stream_state", "peer", peer), float64(td.State()))
			if adj, ok := td.LastAdjustment(); ok {
				em.Gauge(metrics.Name("sfd_stream_td_seconds", "peer", peer),
					adj.Measured.TD.Seconds())
				em.Gauge(metrics.Name("sfd_stream_mr_per_s", "peer", peer), adj.Measured.MR)
				em.Gauge(metrics.Name("sfd_stream_qap", "peer", peer), adj.Measured.QAP)
			}
		}
		sh.mu.Unlock()
	}
	if skipped > 0 {
		em.Gauge("sfd_registry_metrics_streams_skipped", float64(skipped))
	}
}
