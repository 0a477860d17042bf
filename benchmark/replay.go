package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"
)

// The replay workload is the paper's own evaluation path (§V, Fig. 6–10):
// generated WAN traces replayed through the detectors in a single
// closed loop — no sockets, no goroutine hand-offs, simulated time. It
// is the workload on which every live layer does nothing, so an ingest
// or fan-out change must leave it exactly where it was, and whatever it
// reports in simulated time repeats to the bit for a given seed.
//
// Its four parts, all sized by fixed counts so that equal inputs do equal
// work:
//
//	golden   every detector over both traces, QoS compared with pinned values
//	sweep    SFD's QoS curve over initial margins (the figures' x-axis)
//	crashes  SFD replayed up to seeded crash points: detection time TD
//	verdicts the same traces fed to a registry on a simulated clock, so a
//	         verdict path exists to time: lag there is the timer wheel's
//	         quantisation, in simulated time
const (
	replayTraceLen   = 1_600_000 // heartbeats generated per preset
	replayCrashLead  = 3_000     // heartbeats replayed before each crash (window 1000 plus settling)
	replayCrashesSec = 5_000     // crash replays per second of --seconds
	replaySimStreams = 8_000     // streams of the simulated-clock registry
	replaySimBeats   = 150       // heartbeats each of them receives before its crash
)

var replayPresets = []string{"WAN-JPCH", "WAN-1"}

// replayMargins are the sweep's initial margins, in milliseconds.
var replayMargins = []float64{10, 30, 100, 300, 1000}

func runReplay(seed int64, seconds int, traced bool, scale float64) (*report, error) {
	rep := newReport("replay", seed, seconds, traced)
	var rec *spanRecorder
	if traced {
		rec = &spanRecorder{}
	}
	clk := newBenchClock()
	traceLen := scaled(replayTraceLen, scale)

	// ---- set-up: generate the traces (several times; median) ----------
	var traces []*replayTrace
	var passes []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0, t := time.Now(), clk.ns()
		if i == 0 {
			t0 = processStart
		}
		traces = traces[:0]
		for _, name := range replayPresets {
			tr, err := genTrace(name, traceLen)
			if err != nil {
				return nil, err
			}
			traces = append(traces, tr)
		}
		passes = append(passes, time.Since(t0).Seconds())
		rec.add(0, "trace.generate", t, clk.ns(), 0)
	}
	rep.set("setup_s", median(passes))
	rep.set("trace.gen_ns_per_hb", slices.Min(passes)*1e9/float64(len(replayPresets)*traceLen))

	// ---- timed phase ---------------------------------------------------
	cpu0, wall0 := processCPU(), time.Now()
	var fed int64 // heartbeats handed to a detector

	// golden: the figures' raw material must not move at all.
	t := clk.ns()
	tGolden := time.Now()
	var goldenFed int64
	mismatches := 0
	for _, tr := range traces {
		for _, det := range replayDetectors {
			q := replayQoS(tr.tr, det)
			goldenFed += q.Arrivals
			key := tr.name + "/" + det
			if scale == 1 {
				want, ok := goldenQoS[key]
				same := ok && sameFloat(float64(q.TDns), float64(want.TDns)) && sameFloat(q.MR, want.MR) && sameFloat(q.QAP, want.QAP)
				if !same {
					mismatches++
				}
				rep.check("golden_"+key, same, "TD %d ns MR %v QAP %v, pinned %+v", q.TDns, q.MR, q.QAP, want)
			}
			rep.Info["qos_td_ms_"+key] = float64(q.TDns) / 1e6
		}
	}
	rep.set("qos.replay_ns_per_hb", float64(time.Since(tGolden))/float64(goldenFed))
	rec.add(0, "qos.replay_golden", t, clk.ns(), 0)
	fed += goldenFed

	// sweep
	t = clk.ns()
	tds, n := sweepSFD(traces[1].tr, replayMargins)
	fed += n
	rec.add(0, "qos.sweep", t, clk.ns(), 0)
	rep.check("sweep_td_grows_with_margin", sort.SliceIsSorted(tds, func(i, j int) bool { return tds[i] < tds[j] }), "TD per margin %v", tds)

	// crashes: the paper's TD, measured rather than modelled.
	t = clk.ns()
	rng := rand.New(rand.NewSource(seed))
	crashes := scaled(replayCrashesSec*seconds, scale)
	var detect []float64
	undetected := 0
	// The loop's cost is also taken in twelve equal parts, so that one
	// slow stretch (a noisy neighbour, on a shared box) can be told from
	// a slow program.
	var perPart []float64
	partCPU, partFed, part := processCPU(), fed, max(crashes/12, 1)
	for k := 0; k < crashes; k++ {
		if k > 0 && k%part == 0 {
			c := processCPU()
			perPart = append(perPart, float64(c-partCPU)/1e3/float64(fed-partFed))
			partCPU, partFed = c, fed
		}
		tr := traces[k%len(traces)]
		at := replayCrashLead + rng.Intn(tr.len()-replayCrashLead)
		for tr.lost(at) {
			at-- // the crash is the first suppressed send; make it one that would have arrived
		}
		seq, _, _, _ := tr.record(at)
		lat, _, _, consumed, ok := replayCrash(tr.slice(at-replayCrashLead, at+1), "sfd", seq)
		fed += consumed
		if !ok {
			undetected++
			continue
		}
		// TD is reported on the paper's main trace; the other's crashes
		// are replayed (and must be detected) but its TD lives on another
		// scale, and a median across the two would sit on the gap.
		if k%len(traces) == 0 {
			detect = append(detect, float64(lat)/1e6)
		}
	}
	rec.add(0, "qos.replay_crashes", t, clk.ns(), 0)

	// verdicts: a registry on a simulated clock.
	t = clk.ns()
	sim, lagMs, wait, simFed, simMissed := replayVerdicts(traces[0], rng, scaled(replaySimStreams, scale), rec)
	fed += simFed
	rec.add(0, "registry.sim_replay", t, clk.ns(), 0)

	cpu := processCPU() - cpu0
	rep.Info["timed_wall_s"] = time.Since(wall0).Seconds()
	rep.Info["timed_heartbeats"] = float64(fed)
	rep.Info["crash_replays"] = float64(crashes)
	rep.Info["verdict_lag_samples"] = float64(len(lagMs))

	// Memory: what the simulated registry holds per stream, with the
	// traces (inputs, not state) released first.
	streams := sim.streams()
	traces = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("heap_bytes_per_stream", float64(ms.HeapAlloc)/float64(streams))
	sim.stop()

	if len(detect) == 0 || len(lagMs) == 0 {
		return nil, fmt.Errorf("replay produced no detections")
	}
	lagS, detS := sortedCopy(lagMs), sortedCopy(detect)
	rep.set("verdict_lag_p50_ms", percentile(lagS, 50))
	rep.set("verdict_lag_p90_ms", percentile(lagS, 90))
	rep.set("detect_p50_ms", percentile(detS, 50))
	cpuPerHB := float64(cpu) / 1e3 / float64(fed)
	rep.set("cpu_us_per_hb", cpuPerHB)
	rep.Info["cpu_us_per_hb"] = cpuPerHB
	rep.Info["hb_per_core_s"] = 1e6 / cpuPerHB
	rep.Info["cpu_us_per_hb_median_part"] = median(perPart)

	rep.Attempted = fed + int64(crashes) + int64(streams)
	rep.Failed = int64(undetected) + int64(simMissed) + int64(mismatches)
	rep.check("every_crash_detected", undetected == 0 && simMissed == 0, "%d crash replays and %d simulated streams never suspected", undetected, simMissed)

	if !traced {
		return rep, nil
	}
	rep.set("bench.verdict_lag_p99_ms", percentile(lagS, 99))
	rep.set("registry.wheel_lag_p50_ms", percentile(lagS, 50))
	rep.set("registry.wheel_lag_p90_ms", percentile(lagS, 90))
	rep.set("registry.wheel_lag_p99_ms", percentile(lagS, 99))
	rep.set("core.estimator_wait_p50_ms", median(wait))
	if err := commonProbes(clk, rep); err != nil {
		return nil, err
	}
	tf := traceFile{Workload: "replay", Seed: seed, Seconds: seconds, Layers: selfByLayer(rec.spans),
		Metrics: make(map[string]float64), Spans: rec.spans}
	for _, d := range perLayerDefs {
		tf.Metrics[d.Name] = rep.values[d.Name]
	}
	path, err := writeTraceFile("replay", tf)
	rep.TraceFile = path
	return rep, err
}

// replayVerdicts feeds n streams — each a seeded window of the trace,
// shifted to start together — through a registry on a simulated clock,
// crashes every one after its last heartbeat, and collects each verdict's
// lag behind the victim's freshness point. All of it is simulated time.
func replayVerdicts(tr *replayTrace, rng *rand.Rand, n int, rec *spanRecorder) (sim *simRegistry, lagMs, waitMs []float64, fed int64, missed int) {
	type arrival struct {
		recv, send int64
		seq        uint64
		stream     int32
	}
	type victim struct {
		name    string
		crashAt int64
	}
	sim = newSimRegistry(tr.interval(), classFast.Margin)
	origin := int64(clockShift) + int64(time.Second)
	victims := make([]victim, n)
	arrivals := make([]arrival, 0, n*replaySimBeats)
	for s := 0; s < n; s++ {
		// A window ending inside a loss burst would have the registry
		// suspect (and, if the burst is an outage, evict) the stream before
		// the crash is injected: draw one that ends on arrivals.
		from := rng.Intn(tr.len() - replaySimBeats - 1)
		for tr.lostAny(from+replaySimBeats-8, from+replaySimBeats) {
			from = rng.Intn(tr.len() - replaySimBeats - 1)
		}
		_, firstSend, _, _ := tr.record(from)
		// Streams start spread over one interval, like a real fleet.
		shift := origin - firstSend + rng.Int63n(int64(tr.interval()))
		for i := from; i < from+replaySimBeats; i++ {
			seq, send, recv, lost := tr.record(i)
			if !lost {
				arrivals = append(arrivals, arrival{recv + shift, send + shift, seq, int32(s)})
			}
		}
		_, crashSend, _, _ := tr.record(from + replaySimBeats)
		victims[s] = victim{name: fmt.Sprintf("sim/s-%05d", s), crashAt: crashSend + shift}
	}
	sort.Slice(arrivals, func(i, j int) bool {
		if arrivals[i].recv != arrivals[j].recv {
			return arrivals[i].recv < arrivals[j].recv
		}
		return arrivals[i].stream < arrivals[j].stream
	})
	for _, a := range arrivals {
		sim.observe(victims[a.stream].name, a.seq, a.send, a.recv)
	}
	fed = int64(len(arrivals))
	// Everything has crashed; let simulated time run until every
	// freshness point has expired and the wheel has fired.
	sim.advanceTo(arrivals[len(arrivals)-1].recv + int64(10*time.Second))

	// The last suspect verdict per stream is the crash's; earlier ones
	// are the trace's own mistakes (lost or late heartbeats).
	verdictAt := make(map[string]int64, n)
	sim.drain(func(peer string, at int64) { verdictAt[peer] = at })
	for s, v := range victims {
		at, ok := verdictAt[v.name]
		tau := sim.freshness(v.name)
		if !ok || tau == 0 || at < tau {
			missed++
			continue
		}
		lagMs = append(lagMs, float64(at-tau)/1e6)
		waitMs = append(waitMs, float64(tau-v.crashAt)/1e6)
		if s%4 == 0 {
			id := int64(s + 1)
			root := rec.add(id, "verdict.fault_to_consumer", v.crashAt, at, 0)
			rec.add(id, "core.estimator_wait", v.crashAt, tau, root)
			rec.add(id, "registry.wheel", tau, at, root)
		}
	}
	return sim, lagMs, waitMs, fed, missed
}

// sameFloat compares a simulated-time output with its pinned value:
// exactly on amd64, where the values were recorded; elsewhere the
// compiler may fuse multiply-adds, so allow the last few bits.
func sameFloat(got, want float64) bool {
	if runtime.GOARCH == "amd64" {
		return got == want
	}
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

type goldenEntry struct {
	TDns    int64
	MR, QAP float64
}
