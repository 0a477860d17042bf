// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§V). Each iteration regenerates the corresponding
// artefact at a reduced scale (full paper scale is available through
// cmd/sfdbench -full); custom metrics surface the headline numbers so
// `go test -bench` output doubles as a compact reproduction report.
package sfd_test

import (
	"fmt"
	"io"
	"testing"

	sfd "repro"
	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/qos"
	"repro/internal/trace"
)

// benchCfg keeps per-iteration cost moderate; the shape conclusions are
// already stable at this scale.
func benchCfg() bench.Config {
	return bench.Config{Heartbeats: 30_000, SweepPoints: 10, WindowSize: 500}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := benchCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_TraceGen regenerates Table I (the WAN host matrix).
func BenchmarkTable1_TraceGen(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2_TraceStats regenerates Table II: per-environment
// heartbeat statistics from the calibrated synthetic traces.
func BenchmarkTable2_TraceStats(b *testing.B) { runExperiment(b, "table2") }

// figBench sweeps the four detectors over one WAN trace and reports the
// figure's headline series characteristics as custom metrics.
func figBench(b *testing.B, env string) {
	cfg := benchCfg()
	tr, err := bench.MakeTrace(cfg, env)
	if err != nil {
		b.Fatal(err)
	}
	var curves []qos.Curve
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves = bench.FigureCurves(cfg, tr, bench.DefaultTargets())
	}
	b.StopTimer()
	for _, c := range curves {
		min, max := c.TDRange()
		switch c.Detector {
		case "SFD":
			b.ReportMetric(min.Seconds(), "SFD-TDmin-s")
			b.ReportMetric(max.Seconds(), "SFD-TDmax-s")
		case "Chen FD":
			b.ReportMetric(max.Seconds(), "Chen-TDmax-s")
		case "phi FD":
			b.ReportMetric(max.Seconds(), "phi-TDmax-s")
		}
	}
}

// BenchmarkFig6_MRvsTD regenerates Fig. 6 (mistake rate vs detection
// time, JP↔CH WAN).
func BenchmarkFig6_MRvsTD(b *testing.B) { figBench(b, "WAN-JPCH") }

// BenchmarkFig7_QAPvsTD regenerates Fig. 7 (query accuracy probability vs
// detection time, JP↔CH WAN — same sweep, QAP axis).
func BenchmarkFig7_QAPvsTD(b *testing.B) {
	cfg := benchCfg()
	tr, err := bench.MakeTrace(cfg, "WAN-JPCH")
	if err != nil {
		b.Fatal(err)
	}
	var curves []qos.Curve
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves = bench.FigureCurves(cfg, tr, bench.DefaultTargets())
	}
	b.StopTimer()
	for _, c := range curves {
		if c.Detector == "SFD" {
			if qap, ok := c.BestQAPAt(clock.Second); ok {
				b.ReportMetric(qap*100, "SFD-QAP-%")
			}
		}
	}
}

// BenchmarkFig9_MRvsTD_WAN1 regenerates Fig. 9 (WAN-1, USA→Japan).
func BenchmarkFig9_MRvsTD_WAN1(b *testing.B) { figBench(b, "WAN-1") }

// BenchmarkFig10_QAPvsTD_WAN1 regenerates Fig. 10 (WAN-1, QAP axis).
func BenchmarkFig10_QAPvsTD_WAN1(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkWindowSizeEffect regenerates the §V-C window-size study.
func BenchmarkWindowSizeEffect(b *testing.B) { runExperiment(b, "window") }

// BenchmarkSelfTuningConvergence regenerates the §V-B self-tuning
// narrative: SM trajectory and the infeasible-target response.
func BenchmarkSelfTuningConvergence(b *testing.B) {
	cfg := benchCfg()
	tr, err := bench.MakeTrace(cfg, "WAN-1")
	if err != nil {
		b.Fatal(err)
	}
	var finalMargin sfd.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := sfd.NewSFD(sfd.Config{
			WindowSize:    cfg.WindowSize,
			InitialMargin: 3 * clock.Second,
			Targets:       bench.DefaultTargets(),
		})
		sfd.Replay(tr.Stream(), det)
		finalMargin = det.Margin()
	}
	b.StopTimer()
	b.ReportMetric(finalMargin.Seconds(), "final-SM-s")
}

// BenchmarkClusterMonitoring regenerates the §VII multi-cloud scenario:
// crash detection across the Fig. 1 consortium.
func BenchmarkClusterMonitoring(b *testing.B) { runExperiment(b, "cluster") }

// BenchmarkDetectorObserve_* measure the per-heartbeat cost of each
// scheme at the paper's window size — the scalability argument of §V-C
// ("SFD has good scalability ... it can save valuable memory resources").
func benchObserve(b *testing.B, det sfd.Detector) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := clock.Time(i) * clock.Time(100*clock.Millisecond)
		det.Observe(uint64(i), t, t.Add(3*clock.Millisecond))
	}
}

func BenchmarkDetectorObserve_SFD(b *testing.B) {
	benchObserve(b, sfd.NewSFD(sfd.Config{Interval: 100 * clock.Millisecond, Targets: bench.DefaultTargets()}))
}

func BenchmarkDetectorObserve_Chen(b *testing.B) {
	benchObserve(b, sfd.NewChen(1000, 100*clock.Millisecond, 100*clock.Millisecond))
}

func BenchmarkDetectorObserve_Bertier(b *testing.B) {
	benchObserve(b, sfd.NewBertier(1000, 100*clock.Millisecond, sfd.BertierParams{}))
}

func BenchmarkDetectorObserve_Phi(b *testing.B) {
	benchObserve(b, sfd.NewPhi(1000, 8, 0))
}

// BenchmarkConsensusWithCrash measures one full SFD-driven
// Chandra–Toueg consensus (5 processes, round-0 coordinator crashed) —
// the executable form of the paper's ◇P_ac ⇒ consensus claim.
func BenchmarkConsensusWithCrash(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sfd.NewConsensus(sfd.ConsensusOptions{
			N: 5, Seed: 5, StartDelay: 3 * clock.Second,
			Factory: func(string) sfd.Detector {
				return sfd.NewSFD(sfd.Config{
					WindowSize: 20, Interval: 50 * clock.Millisecond,
					InitialMargin: 200 * clock.Millisecond,
				})
			},
		})
		for j := 0; j < 5; j++ {
			c.Propose(j, "v")
		}
		c.CrashAt(0, clock.Second)
		if !c.Run(60 * clock.Second) {
			b.Fatal("consensus did not terminate")
		}
		if _, err := c.Agreement(); err != nil {
			b.Fatal(err)
		}
	}
}

// registryFleetSizes are the stream counts the fleet-scale registry is
// benchmarked at. The 1m point backs the million-stream ingest claim:
// Observe must hold 0 allocs/op and stay amortized sub-microsecond even
// when the shard maps and timer wheel hold a million live streams.
var registryFleetSizes = []struct {
	name string
	n    int
}{{"1k", 1_000}, {"10k", 10_000}, {"100k", 100_000}, {"1m", 1_000_000}}

// registryFleetSizesPersist caps the persistence variant at 100k: the
// armed checkpointer snapshots the full fleet off-clock, and a 1m
// snapshot turns a bench-smoke run into a disk benchmark.
var registryFleetSizesPersist = registryFleetSizes[:3]

// BenchmarkRegistryIngest measures the amortized per-heartbeat cost of
// Registry.Observe at fleet scale: hash → shard lock → detector update →
// deadline write. The lazy timer-wheel design keeps the hot path free of
// wheel operations, so this must stay sub-microsecond at 10k streams.
//
// The fleet sizes run a fixed-timeout detector, which has no window.
// named-10k is the 10k case fed the way a receiver hands on wire-v3
// beats: each arrival carries its stream's Name, and all share one
// source address in From. The sfd-1k case runs the paper's SFD in the
// benchmark's steady shape (window 100, slot 50, 1 s on-time heartbeats)
// after 1 000 warm-up arrivals per stream, so windows are full, slots
// close and the adjustment log has reached its cap: the window's narrow
// words, the feedback loop and the log must not allocate either.
// sfd-1k-hier is sfd-1k over 22-byte hierarchical names
// (dc/zone-Z/rack-RR/s-NN, the storm workload's shape) instead of
// 10-byte srv-NNNNNN ones.
func BenchmarkRegistryIngest(b *testing.B) {
	for _, size := range registryFleetSizes {
		b.Run(size.name, func(b *testing.B) { benchFixedIngest(b, size.n, false) })
	}
	b.Run("named-10k", func(b *testing.B) { benchFixedIngest(b, 10_000, true) })
	b.Run("sfd-1k", func(b *testing.B) {
		benchSFDIngest(b, func(p int) string { return fmt.Sprintf("srv-%06d", p) })
	})
	b.Run("sfd-1k-hier", func(b *testing.B) {
		benchSFDIngest(b, func(p int) string {
			return fmt.Sprintf("dc/zone-%d/rack-%02d/s-%02d", p/400, p/20%20, p%20)
		})
	})
}

// benchFixedIngest is a fleet-size case over n fixed-timeout streams,
// keyed by From, or by Name under one shared From when named is set.
func benchFixedIngest(b *testing.B, n int, named bool) {
	reg := sfd.NewRegistry(sfd.NewSimClock(0), func(string) sfd.Detector {
		return sfd.NewFixed(500*clock.Millisecond, 1)
	}, sfd.RegistryOptions{Shards: 64})
	peers := make([]string, n)
	seqs := make([]uint64, n)
	observe := func(p int, at clock.Time) {
		a := sfd.HeartbeatArrival{From: peers[p], Seq: seqs[p], Send: at, Recv: at}
		if named {
			a.From, a.Name = "10.0.0.1:9000", peers[p]
		}
		reg.Observe(a)
		seqs[p]++
	}
	for p := range peers {
		peers[p] = fmt.Sprintf("srv-%06d", p)
		observe(p, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe(i%n, clock.Time(i)*clock.Time(clock.Microsecond))
	}
}

// benchSFDIngest is the sfd-1k case over 1 000 streams named by name(p).
func benchSFDIngest(b *testing.B, name func(p int) string) {
	const (
		streams  = 1_000
		warmup   = 1_000
		interval = clock.Second
	)
	cfg := sfd.DefaultConfig()
	cfg.WindowSize, cfg.SlotHeartbeats = 100, 50
	cfg.Interval, cfg.InitialMargin = interval, 250*clock.Millisecond
	cfg.Targets = sfd.Targets{MaxTD: 2 * interval, MaxMR: 0.05, MinQAP: 0.99}
	reg := sfd.NewRegistry(sfd.NewSimClock(0), func(string) sfd.Detector {
		return sfd.NewSFD(cfg)
	}, sfd.RegistryOptions{Shards: 64})
	peers := make([]string, streams)
	seqs := make([]uint64, streams)
	// Stream p beats at seq·interval + p µs: every delta is on time.
	observe := func(p int) {
		at := clock.Time(seqs[p])*clock.Time(interval) + clock.Time(p)*clock.Time(clock.Microsecond)
		reg.Observe(sfd.HeartbeatArrival{From: peers[p], Seq: seqs[p], Send: at, Recv: at})
		seqs[p]++
	}
	for p := range peers {
		peers[p] = name(p)
		for j := 0; j < warmup; j++ {
			observe(p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe(i % streams)
	}
}

// BenchmarkRegistryIngestPersist is BenchmarkRegistryIngest with
// crash-safe persistence armed: state dir open, checkpointer started,
// delta subscription live. Snapshots and journal flushes run off the
// checkpoint timers, never on the ingest path, so Observe must stay at
// 0 allocs/op — the CI gate that keeps persistence off the hot path.
func BenchmarkRegistryIngestPersist(b *testing.B) {
	for _, size := range registryFleetSizesPersist {
		b.Run(size.name, func(b *testing.B) {
			reg := sfd.NewRegistry(sfd.NewSimClock(0), func(string) sfd.Detector {
				return sfd.NewFixed(500*clock.Millisecond, 1)
			}, sfd.RegistryOptions{Shards: 64, StateDir: b.TempDir()})
			reg.Start()
			defer reg.Stop()
			if reg.Checkpointer() == nil {
				b.Fatal("persistence not armed")
			}
			peers := make([]string, size.n)
			seqs := make([]uint64, size.n)
			for i := range peers {
				peers[i] = fmt.Sprintf("srv-%06d", i)
				reg.Observe(sfd.HeartbeatArrival{From: peers[i], Seq: 0, Send: 0, Recv: 0})
				seqs[i] = 1
			}
			// Prove the store is live before timing: one full snapshot.
			if err := reg.SaveSnapshot(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % size.n
				at := clock.Time(i) * clock.Time(clock.Microsecond)
				reg.Observe(sfd.HeartbeatArrival{From: peers[p], Seq: seqs[p], Send: at, Recv: at})
				seqs[p]++
			}
			// Keep teardown (Stop's final snapshot) out of the timings.
			b.StopTimer()
		})
	}
}

// BenchmarkFanoutPublish measures the publish-side cost of event fan-out
// at fleet scale: events drawn from a 100k-stream hierarchical name
// space are published to 1k or 10k subscribers. In filtered mode every
// subscriber holds a (region, cluster) subtree filter — 100 distinct
// subtrees, so each event matches ~1% of subscribers and the topic trie
// routes it to just those. In firehose mode the same subscribers take
// every event, the pre-trie behaviour. The ISSUE's acceptance gate:
// filtered publish must be ≥10× cheaper than firehose at 10k
// subscribers, because its cost scales with matches, not subscribers.
func BenchmarkFanoutPublish(b *testing.B) {
	// 10 regions × 10 clusters × 100 hosts × 10 services = 100k names;
	// the published events cycle through a uniform sample of them.
	names := make([]string, 4096)
	for i := range names {
		names[i] = fmt.Sprintf("r%d/c%d/h%d/s%d", i%10, (i/10)%10, i%100, i%10)
	}
	for _, nSubs := range []int{1_000, 10_000} {
		for _, mode := range []string{"filtered", "firehose"} {
			b.Run(fmt.Sprintf("%s-%dsubs", mode, nSubs), func(b *testing.B) {
				reg := sfd.NewRegistry(sfd.NewSimClock(0), func(string) sfd.Detector {
					return sfd.NewFixed(500*clock.Millisecond, 1)
				}, sfd.RegistryOptions{})
				bus := reg.Bus()
				for i := 0; i < nSubs; i++ {
					// buf=1, never drained: every delivery exercises the
					// full drop-oldest offer path in both modes.
					if mode == "firehose" {
						defer reg.Subscribe(1).Close()
						continue
					}
					sub, err := reg.SubscribeTopic(fmt.Sprintf("r%d/c%d/#", i%10, (i/10)%10), 1)
					if err != nil {
						b.Fatal(err)
					}
					defer sub.Close()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bus.Publish(sfd.Event{Type: sfd.EventSuspect, Peer: names[i%len(names)], At: sfd.Time(i)})
				}
				b.StopTimer()
				if mode == "filtered" {
					b.ReportMetric(float64(bus.FanoutStats().Matches)/float64(b.N), "deliv/op")
				} else {
					b.ReportMetric(float64(nSubs), "deliv/op")
				}
			})
		}
	}
}

// BenchmarkRegistryTimerWheel measures one wheel tick of fleet time in
// steady state: per iteration a tenth of the fleet heartbeats (each
// stream beats every 10 ticks) and Tick advances the wheel, firing and
// lazily re-arming each stream's entry once per timeout period. No
// status transitions occur; this is the pure scheduling load.
func BenchmarkRegistryTimerWheel(b *testing.B) {
	const tick = 10 * clock.Millisecond
	const beatEvery = 10
	for _, size := range registryFleetSizes {
		b.Run(size.name, func(b *testing.B) {
			reg := sfd.NewRegistry(sfd.NewSimClock(0), func(string) sfd.Detector {
				return sfd.NewFixed(15*tick, 1)
			}, sfd.RegistryOptions{Shards: 64, WheelTick: tick, MaxSilence: -1})
			peers := make([]string, size.n)
			seqs := make([]uint64, size.n)
			for i := range peers {
				peers[i] = fmt.Sprintf("srv-%06d", i)
				reg.Observe(sfd.HeartbeatArrival{From: peers[i], Seq: 0, Send: 0, Recv: 0})
				seqs[i] = 1
			}
			now := clock.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(tick)
				for p := i % beatEvery; p < size.n; p += beatEvery {
					reg.Observe(sfd.HeartbeatArrival{From: peers[p], Seq: seqs[p], Send: now, Recv: now})
					seqs[p]++
				}
				reg.Tick(now)
			}
			b.StopTimer()
			if c := reg.Counters(); c.Suspects != 0 {
				b.Fatalf("steady-state bench produced %d suspects", c.Suspects)
			}
			b.ReportMetric(float64(size.n), "streams")
		})
	}
	// silent1pct-10k: as above, but each tick a tenth of the streams due
	// to beat skip that beat — 1 % of the fleet goes silent per tick. The
	// lookahead finds each one still due, moves it to the fine heap, and
	// the next Tick suspects it; its next beat trusts it again. A warm-up
	// of two full silence cycles lets every stream make its first mistake
	// (which allocates its cold counters) and the wheel and heap reach
	// their steady size before timing starts.
	b.Run("silent1pct-10k", func(b *testing.B) {
		const n, cycle = 10_000, 10 * beatEvery
		reg := sfd.NewRegistry(sfd.NewSimClock(0), func(string) sfd.Detector {
			return sfd.NewFixed(15*tick, 1)
		}, sfd.RegistryOptions{Shards: 64, WheelTick: tick, MaxSilence: -1, OfflineAfter: 2 * beatEvery * tick})
		peers := make([]string, n)
		seqs := make([]uint64, n)
		for i := range peers {
			peers[i] = fmt.Sprintf("srv-%06d", i)
			reg.Observe(sfd.HeartbeatArrival{From: peers[i], Seq: 0, Send: 0, Recv: 0})
			seqs[i] = 1
		}
		step := func(i int) {
			now := clock.Time(i+1) * clock.Time(tick)
			silent := (i / beatEvery) % 10
			for p := i % beatEvery; p < n; p += beatEvery {
				if (p/beatEvery)%10 == silent {
					continue
				}
				reg.Observe(sfd.HeartbeatArrival{From: peers[p], Seq: seqs[p], Send: now, Recv: now})
				seqs[p]++
			}
			reg.Tick(now)
		}
		for i := 0; i < 2*cycle; i++ {
			step(i)
		}
		warm := reg.Counters().Suspects
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(2*cycle + i)
		}
		b.StopTimer()
		if c := reg.Counters(); warm == 0 || c.Offlines != 0 {
			b.Fatalf("%d suspects in warm-up, %d offlines: want silences, each ended by the next beat", warm, c.Offlines)
		}
		b.ReportMetric(n, "streams")
	})
	// rotate-10k: 10k streams beating once a second on a fixed 1.25 s
	// timeout, evenly phased over the second's ticks, so every re-armed
	// entry lands on level 1 and reaches level 0 by cascade. One op is 64
	// ticks, one level-1 slot's span, so every op cascades once. A 32 s
	// warm-up (twice the 16 s after which the beat and cascade phases
	// repeat) lets the wheel reach its peak before timing starts; from
	// then on the wheel must reuse what it holds.
	b.Run("rotate-10k", func(b *testing.B) {
		const n, perBeat, slotSpan = 10_000, int(clock.Second / tick), 64
		reg := sfd.NewRegistry(sfd.NewSimClock(0), func(string) sfd.Detector {
			return sfd.NewFixed(1250*clock.Millisecond, 1)
		}, sfd.RegistryOptions{Shards: 64, WheelTick: tick, MaxSilence: -1})
		peers := make([]string, n)
		for i := range peers {
			peers[i] = fmt.Sprintf("srv-%06d", i)
		}
		k := 0
		step := func() {
			now := clock.Time(k) * clock.Time(tick)
			for p := k % perBeat; p < n; p += perBeat {
				reg.Observe(sfd.HeartbeatArrival{From: peers[p], Seq: uint64(k / perBeat), Send: now, Recv: now})
			}
			reg.Tick(now)
			k++
		}
		for k < 32*perBeat {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < slotSpan; j++ {
				step()
			}
		}
		b.StopTimer()
		if c := reg.Counters(); c.Suspects != 0 {
			b.Fatalf("steady-state bench produced %d suspects", c.Suspects)
		}
		b.ReportMetric(n, "streams")
	})
	// driver-{wide,tight}-10k: the registry's own driver under clock.Sim.
	// One op is one tick of simulated time, in which the tenth of a
	// 10k-stream fleet due to beat does so at its own phase (10 µs
	// apart). wide's safety margin (timeout − interval) is 5 ticks; tight's
	// is half a tick, below WheelTick, so every healthy stream whose τ
	// lies in the second half of a tick rides the fine heap each interval.
	// The driver wakes once per tick, for the earliest of them; by then
	// every other one's stream has beaten, and the Tick resolves those
	// entries as moved on. The difference between the two is that path's
	// cost.
	for _, m := range []struct {
		name   string
		margin clock.Duration
	}{{"driver-wide-10k", 5 * tick}, {"driver-tight-10k", tick / 2}} {
		b.Run(m.name, func(b *testing.B) {
			const n, interval = 10_000, beatEvery * tick
			sim := sfd.NewSimClock(0)
			reg := sfd.NewRegistry(sim, func(string) sfd.Detector {
				return sfd.NewFixed(interval+m.margin, 1)
			}, sfd.RegistryOptions{Shards: 64, WheelTick: tick, MaxSilence: -1})
			reg.Start()
			defer reg.Stop()
			peers := make([]string, n)
			for i := range peers {
				peers[i] = fmt.Sprintf("srv-%06d", i)
			}
			step := func(i int) {
				cycle := clock.Time(i/beatEvery) * clock.Time(interval)
				first := i % beatEvery * (n / beatEvery)
				for p := first; p < first+n/beatEvery; p++ {
					at := cycle + clock.Time(p)*clock.Time(interval/n)
					sim.AdvanceTo(at)
					reg.Observe(sfd.HeartbeatArrival{From: peers[p], Seq: uint64(i / beatEvery), Send: at, Recv: at})
				}
				sim.AdvanceTo(clock.Time(i+1) * clock.Time(tick))
			}
			for i := 0; i < 2*beatEvery; i++ {
				step(i)
			}
			before := reg.Counters()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(2*beatEvery + i)
			}
			b.StopTimer()
			c := reg.Counters()
			if c.Suspects != 0 {
				b.Fatalf("healthy fleet produced %d suspects", c.Suspects)
			}
			b.ReportMetric(float64(c.FineWakes-before.FineWakes)/(float64(b.N)*tick.Seconds()), "fine-wakes/s")
		})
	}
}

// countingEndpoint is a datagram sink that only counts what a
// federation leaf pushes — the benchmark measures digest production,
// not delivery.
type countingEndpoint struct{ bytes int }

func (c *countingEndpoint) Send(to string, payload []byte) error {
	c.bytes += len(payload)
	return nil
}
func (c *countingEndpoint) Addr() string { return "sink" }

// BenchmarkDigestRollup measures one federation roll-up interval at
// fleet scale: fold queued bus transitions, sweep the whole registry
// into per-cohort aggregates, and marshal the digest datagram(s). The
// sweep is O(streams) CPU once per interval, but the emitted bytes are
// O(cohorts): the bytes/interval metric must track the cohort count,
// not the 10k-stream fleet (8 vs 64 cohorts over the same fleet). The
// ingest hot path stays untouched — BenchmarkRegistryIngest's 0
// allocs/op gate covers that.
func BenchmarkDigestRollup(b *testing.B) {
	const streams = 10_000
	for _, cohorts := range []int{8, 64} {
		b.Run(fmt.Sprintf("%dcohorts-10k", cohorts), func(b *testing.B) {
			reg := sfd.NewRegistry(sfd.NewSimClock(0), func(string) sfd.Detector {
				return sfd.NewFixed(500*clock.Millisecond, 1)
			}, sfd.RegistryOptions{Shards: 64, MaxSilence: -1, EvictAfter: -1})
			filters := make([]string, cohorts)
			for i := range filters {
				filters[i] = fmt.Sprintf("r/c%d/#", i)
			}
			for i := 0; i < streams; i++ {
				name := fmt.Sprintf("r/c%d/s%d", i%cohorts, i)
				reg.Observe(sfd.HeartbeatArrival{From: name, Seq: 1, Inc: 1})
			}
			ep := &countingEndpoint{}
			leaf, err := sfd.NewFederationLeaf(ep, sfd.NewSimClock(0), reg, "agg", sfd.FederationLeafOptions{
				ID: "bench-leaf", Region: "r", Cohorts: filters, Interval: clock.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer leaf.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				leaf.Rollup(clock.Time(i) * clock.Time(clock.Second))
			}
			b.StopTimer()
			b.ReportMetric(float64(ep.bytes)/float64(b.N), "bytes/interval")
			b.ReportMetric(float64(cohorts), "cohorts")
			b.ReportMetric(float64(streams), "streams")
		})
	}
}

// BenchmarkTraceGeneration measures synthetic-trace throughput (the
// substrate cost underlying every experiment).
func BenchmarkTraceGeneration(b *testing.B) {
	gp, err := trace.Preset("WAN-1")
	if err != nil {
		b.Fatal(err)
	}
	gp.Count = 1 << 62 // effectively unbounded; b.N controls the work
	g := trace.NewGenerator(gp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
