package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// processStart approximates the process's start; the first set-up pass
// is timed from here.
var processStart = time.Now()

// lateLimitMs is the generator lateness, at p99, beyond which a run is
// reported invalid instead of as a result: a tenth of the tightest safety
// margin any stream runs with. (5 ms was the aim. On the 2-core VM this
// was written on, a checkpoint's disk write stalls every process, even a
// real-time one, for tens of milliseconds — the fleet workload's p99 sits
// at 5–7 ms for that reason alone — and about one run in forty of any
// workload meets a 70 ms stall of the whole VM.)
const lateLimitMs = 25

// setupRepeats is how many times a run does its deterministic
// preparation (plan, registration, pre-warm, packet encoding); setup_s
// reports the median pass so one slow pass does not decide it.
const setupRepeats = 3

// liveRun is one execution of a live workload (steady, storm or fleet):
// real loopback UDP in, verdicts out over HTTP.
type liveRun struct {
	rep    *report
	traced bool
	scale  float64

	clk  *benchClock
	plan *plan
	rec  *spanRecorder // nil when untraced

	mon *monitor
	gen *genProc
	fl  *fleetRig // fleet only
	t0  int64     // due time of the first beat, on the run's clock
	idx map[string]int32

	// Verdict bookkeeping: written by the consumer's goroutine, read after
	// it has stopped.
	spurious int64 // suspect verdicts that map to no injected fault
	movedTau int64 // verdicts read so late the stream had already recovered

	prewarmed uint64
}

// prepared is the product of one set-up pass.
type prepared struct {
	plan *plan
	reg  registryHandle
	idx  map[string]int32
	obs  uint64 // pre-warm arrivals fed
}

func runLive(workload string, seed int64, seconds int, traced bool, scale float64) (*report, error) {
	r := &liveRun{rep: newReport(workload, seed, seconds, traced), traced: traced, scale: scale, clk: newBenchClock()}
	if traced {
		r.rec = &spanRecorder{}
	}
	defer r.teardown()
	if err := r.setup(workload, seed, seconds); err != nil {
		return nil, err
	}
	if err := r.measure(); err != nil {
		return nil, err
	}
	return r.rep, nil
}

// setup prepares the run setupRepeats times, keeps the last preparation,
// wires the system around it and leaves everything waiting for t0.
func (r *liveRun) setup(workload string, seed int64, seconds int) error {
	begin := processStart
	udp, err := bindUDP()
	if err != nil {
		return err
	}
	var rig *fleetRig
	if workload == "fleet" {
		if rig, err = newFleetRig(r.clk, r.traced); err != nil {
			udp.Close()
			return err
		}
		r.fl = rig
	}
	scaffold := time.Since(begin)

	opts := monitorOpts{Traced: r.traced, CfgOf: cfgOfName}
	if workload == "fleet" {
		// Inside the checkout, and this run's alone.
		if err = os.MkdirAll(outDir(), 0o755); err == nil {
			opts.StateDir, err = os.MkdirTemp(outDir(), "state-fleet-")
		}
		if err != nil {
			udp.Close()
			return err
		}
		opts.Checkpoint = fleetCheckpoint
		rig.stateDir = opts.StateDir
	}

	// Time to leave between the start of the final pass and t0: the pass
	// itself (estimated from the passes before it) plus the wiring, which
	// includes the generator process rebuilding the plan for itself.
	wiring := 1500 * time.Millisecond
	if workload == "fleet" {
		wiring = 3500 * time.Millisecond
	}
	var passes []float64
	var last prepared
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // the previous pass's garbage is not this pass's work
		slack := 30 * time.Second
		if i == setupRepeats-1 {
			slack = time.Duration(1.5*slices.Max(passes)*float64(time.Second)) + wiring
		}
		t := time.Now()
		epoch := r.clk.ns() + int64(slack)
		p, err := r.prepare(workload, seed, seconds, epoch, rig, opts)
		if err != nil {
			udp.Close()
			return err
		}
		passes = append(passes, time.Since(t).Seconds())
		last, r.t0 = p, epoch
	}
	r.plan, r.idx, r.prewarmed = last.plan, last.idx, last.obs

	t := time.Now()
	mon, err := startMonitor(r.clk, udp, last.reg, opts)
	if err != nil {
		udp.Close()
		return err
	}
	r.mon = mon
	if rig != nil {
		if err := rig.wire(r); err != nil {
			return err
		}
	}
	mon.run()
	if rig != nil {
		if err := rig.awaitReady(r); err != nil {
			return err
		}
	}
	spec := genSpec{Workload: workload, Seed: seed, Seconds: seconds, Scale: r.scale,
		T0Mono: r.t0 + clockOffset(r.clk), T0Clock: r.t0, Dst: [2]string{udp.Addr()}}
	if rig != nil {
		spec.Dst[1] = rig.udp2.Addr()
	}
	if r.gen, err = startGenerator(spec); err != nil {
		return err
	}
	wired := time.Since(t)

	r.rep.set("setup_s", scaffold.Seconds()+median(passes)+wired.Seconds())
	r.rep.Info["setup_pass_s_min"] = slices.Min(passes)
	r.rep.Info["setup_pass_s_max"] = slices.Max(passes)
	r.rep.Info["setup_wiring_s"] = wired.Seconds() + scaffold.Seconds()
	if now := r.clk.ns(); now > r.t0-int64(50*time.Millisecond) {
		return fmt.Errorf("set-up overran its planned start epoch by %v", time.Duration(now-r.t0))
	}
	return nil
}

// cfgOfName maps a stream name to its detector class: the fleet's bulk
// streams ("…/s-NNNNNN" under fleet/) are the only slow ones.
func cfgOfName(name string) detCfg {
	if strings.HasPrefix(name, "fleet/") && strings.Contains(name, "/s-") {
		return classSlow
	}
	return classFast
}

// clockOffset is CLOCK_MONOTONIC minus the run's clock, taken as the
// tightest of a few back-to-back readings.
func clockOffset(clk *benchClock) int64 {
	best, off := int64(1<<62), int64(0)
	for i := 0; i < 9; i++ {
		a := clk.ns()
		m := monoNow()
		b := clk.ns()
		if b-a < best {
			best, off = b-a, m-(a+b)/2
		}
	}
	return off
}

// prepare is one set-up pass: plan, registry, registration and pre-warm
// of every stream, name index.
func (r *liveRun) prepare(workload string, seed int64, seconds int, epoch int64, rig *fleetRig, opts monitorOpts) (prepared, error) {
	p, err := buildPlan(workload, seed, seconds, r.scale)
	if err != nil {
		return prepared{}, err
	}
	out := prepared{plan: p, reg: newRegistry(r.clk, opts), idx: make(map[string]int32, len(p.streams))}
	for i := range p.streams {
		sp := &p.streams[i]
		prewarm(out.reg, sp.name, epoch+sp.phase, sp.prewarm, p.classes[sp.class].interval)
		out.obs += uint64(sp.prewarm)
		out.idx[sp.name] = int32(i)
	}
	if rig != nil {
		rig.prepare(r, p, epoch)
	}
	return out, nil
}

// runMark is what the parent samples as the run crosses a timed-phase
// boundary: its own CPU time and the heartbeats Observe has accepted.
type runMark struct {
	procCPU  time.Duration
	sysCPU   time.Duration // the kernel-mode share of procCPU
	observed uint64
}

func (r *liveRun) mark() runMark {
	m := runMark{observed: r.mon.observed()}
	m.procCPU, m.sysCPU = processCPUSplit()
	if r.fl != nil {
		m.observed += r.fl.mon2.observed()
	}
	return m
}

func (r *liveRun) sleepUntil(t int64) {
	if d := t - r.clk.ns(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// openFault finds the stream's earliest fault injected by instant at for
// which taken reports no observation yet.
func (r *liveRun) openFault(stream int32, at int64, taken func(*fault) bool) *fault {
	for _, fi := range r.plan.faultsOf[stream] {
		f := &r.plan.faults[fi]
		if !taken(f) && r.t0+f.at <= at {
			return f
		}
	}
	return nil
}

// onVerdict is the consumer's handler for a suspect verdict: match it to
// its injected fault and read the victim's freshness point.
func (r *liveRun) onVerdict(peer string, eventAt, receipt int64) {
	i, ok := r.idx[peer]
	var f *fault
	if ok {
		f = r.openFault(i, eventAt, func(f *fault) bool { return f.receipt != 0 })
	}
	if f == nil {
		r.spurious++
		return
	}
	f.receipt, f.eventAt = receipt, eventAt
	r.stampTau(f, peer, eventAt)
}

// stampTau reads the victim's freshness point as its verdict arrives. A
// τ later than the verdict means the stream has beaten again since: the
// point the verdict was about is gone, and the fault gets no lag sample.
func (r *liveRun) stampTau(f *fault, peer string, verdictAt int64) {
	if tau, ok := r.mon.freshness(peer); ok && tau <= verdictAt {
		f.tau = tau
	} else {
		r.movedTau++
	}
}

// onBusEvent runs on the in-process firehose tap.
func (r *liveRun) onBusEvent(ev busEvent) {
	if ev.Type != "suspect" {
		return
	}
	i, ok := r.idx[ev.Peer]
	var f *fault
	if ok {
		f = r.openFault(i, ev.At, func(f *fault) bool { return f.busAt != 0 })
	}
	if f != nil {
		f.busAt = ev.Receipt
	}
}

// measure runs the timed phase and turns what was observed into the
// report.
func (r *liveRun) measure() error {
	rep, p := r.rep, r.plan

	// Consumers. Every live workload has the in-process firehose tap; the
	// operator's connection is /watch (steady, storm) or /fleet (fleet).
	fire, err := r.mon.tapBus("", 1<<15, r.onBusEvent)
	if err != nil {
		return err
	}
	var storm *stormTaps
	var watch *watchClient
	switch p.workload {
	case "storm":
		if storm, err = openStormTaps(r.mon); err != nil {
			return err
		}
		fallthrough
	case "steady":
		filter := "#"
		if p.workload == "storm" {
			filter = "dc/#"
		}
		if watch, err = openWatch(r.mon.baseURL(), filter); err != nil {
			return err
		}
		watch.run(r.clk, r.onVerdict)
	case "fleet":
		r.fl.startDrivers(r)
	}

	var sampler *depthSampler
	if r.traced {
		sampler = startDepthSampler(r.mon)
	}

	names := make([]string, len(p.streams))
	for i := range p.streams {
		names[i] = p.streams[i].name
	}
	var slotsBefore []int32
	if r.traced {
		slotsBefore = r.mon.slotsEvaluated(names)
	}
	before := r.mon.counters()
	// One mark per second of the timed phase: its ends give the whole
	// phase's cost, the seconds in between show where it went.
	marks := make([]runMark, 0, r.rep.Seconds+1)
	for t := p.warm; t <= p.timedEnd; t += int64(time.Second) {
		r.sleepUntil(r.t0 + t)
		marks = append(marks, r.mark())
	}
	begin, end := marks[0], marks[len(marks)-1]
	var perSecond []float64
	for i := 1; i < len(marks); i++ {
		if d := marks[i].observed - marks[i-1].observed; d > 0 {
			perSecond = append(perSecond, float64(marks[i].procCPU-marks[i-1].procCPU)/1e3/float64(d))
		}
	}
	g, err := r.gen.wait()
	if err != nil {
		return err
	}
	// The generator has stopped, so in one margin every stream would be
	// suspected. Let the last datagrams through, halt the wheel before
	// that happens, then let verdicts already published reach their
	// consumers: after this, every count is final.
	time.Sleep(40 * time.Millisecond)
	haltMs := r.mon.haltWheel()
	if r.fl != nil {
		r.fl.mon2.haltWheel()
	}
	time.Sleep(100 * time.Millisecond)

	if sampler != nil {
		sampler.stop()
	}
	if watch != nil {
		rep.set("registry.watch_dropped", float64(r.mon.watchDropped(watch.filter)))
		watch.stop()
	}
	if r.fl != nil {
		r.fl.stopDrivers()
		r.fl.settle(r)
	}
	_, busSuspects, busDropped, busLag := fire.closeTap()
	if storm != nil {
		storm.close()
	}
	after := r.mon.counters()

	// Memory per stream: the heap after forced collections (two, so
	// pooled scratch is dropped as well), with every stream still
	// registered. The socket's receive-buffer pool is taken out: it grows
	// with the worst ingest backlog of the run — one stall can add a
	// hundred megabytes — not with the streams, and it has its own
	// per-layer count (transport.pool_misses).
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	streams, pools := after.Streams, after.PoolBytes
	if r.fl != nil {
		c2 := r.fl.mon2.counters()
		streams += c2.Streams
		pools += c2.PoolBytes
	}
	rep.set("heap_bytes_per_stream", (float64(ms.HeapAlloc)-float64(pools))/float64(streams))
	rep.Info["receive_pool_mb"] = float64(pools) / (1 << 20)

	// ---- operations and failures --------------------------------------
	observedLive := int64(after.Observed) - int64(r.prewarmed)
	sent := int64(g.Sent[0])
	lostHB := sent - observedLive
	var missed, verdicts int64
	for i := range p.faults {
		f := &p.faults[i]
		if f.receipt == 0 || f.receipt-(r.t0+f.at) > p.deadline {
			missed++
		} else {
			verdicts++
		}
	}
	dropped := int64(after.BusDropped-before.BusDropped) + int64(rep.values["registry.watch_dropped"])
	rep.Attempted = sent + int64(len(p.faults))
	rep.Failed = lostHB + missed + r.spurious + dropped
	if r.fl != nil {
		a2, f2 := r.fl.account(g)
		rep.Attempted += a2
		rep.Failed += f2
	}
	rep.Info["faults_injected"] = float64(len(p.faults))
	rep.Info["verdicts_in_time"] = float64(verdicts)
	rep.Info["heartbeats_lost"] = float64(lostHB)
	rep.Info["spurious_suspects"] = float64(r.spurious)
	rep.Info["heartbeats_sent"] = float64(sent)

	// ---- correctness: the accounting must close exactly ---------------
	delivered := after.UDPReceived + after.UDPDropped
	// Foreign datagrams (acks, assignment pushes, gossip) reached the
	// socket too, but not from the generator.
	gap := sent - int64(delivered-before.UDPReceived-before.UDPDropped-(after.Foreign-before.Foreign))
	rep.check("generator_ran_clean", g.SendErrors == 0, "%d send errors", g.SendErrors)
	checkConservation(rep, "", after, r.prewarmed)
	rep.check("kernel_loss_non_negative", gap >= 0, "socket delivered %d more datagrams than were sent", -gap)
	if watch != nil {
		rep.check("every_suspect_reached_consumer", watch.suspects == after.Suspects-before.Suspects,
			"registry published %d suspects, /watch delivered %d", after.Suspects-before.Suspects, watch.suspects)
		rep.check("every_suspect_accounted", int64(watch.suspects) == verdictsSeen(p)+r.spurious,
			"%d suspects read, %d matched + %d spurious", watch.suspects, verdictsSeen(p), r.spurious)
		rep.check("watch_stream_clean", watch.err == nil || isClosedErr(watch.err), "%v", watch.err)
	}
	rep.check("bus_tap_saw_every_suspect", busSuspects == after.Suspects-before.Suspects && busDropped == 0,
		"tap saw %d of %d suspects, dropped %d", busSuspects, after.Suspects-before.Suspects, busDropped)
	if storm != nil {
		storm.check(rep, after.Suspects-before.Suspects)
	}
	if r.fl != nil {
		r.fl.check(r, rep)
	}

	// ---- latency metrics ------------------------------------------------
	var lag, detect, wheel, wait, watchLag []float64
	for i := range p.faults {
		f := &p.faults[i]
		if f.receipt == 0 {
			continue
		}
		detect = append(detect, float64(f.receipt-(r.t0+f.at))/1e6)
		if f.tau != 0 {
			lag = append(lag, float64(f.receipt-f.tau)/1e6)
			wait = append(wait, float64(f.tau-(r.t0+f.at))/1e6)
			if f.eventAt != 0 {
				wheel = append(wheel, float64(f.eventAt-f.tau)/1e6)
			}
		}
		if f.eventAt != 0 {
			watchLag = append(watchLag, float64(f.receipt-f.eventAt)/1e6)
		}
	}
	if len(lag) == 0 {
		return fmt.Errorf("no verdict was observed for any of %d faults", len(p.faults))
	}
	lagS, detS := sortedCopy(lag), sortedCopy(detect)
	rep.set("verdict_lag_p50_ms", percentile(lagS, 50))
	rep.set("verdict_lag_p90_ms", percentile(lagS, 90))
	rep.set("detect_p50_ms", percentile(detS, 50))
	rep.Info["verdict_lag_samples"] = float64(len(lag))
	rep.Info["verdict_lag_top_percentile"] = highestPercentile(len(lag))
	rep.Info["verdict_lag_top_ms"] = percentile(lagS, highestPercentile(len(lag)))
	rep.Info["verdicts_after_recovery"] = float64(r.movedTau)

	// ---- cost metrics ---------------------------------------------------
	// The generator is another process, so this process's CPU is the
	// monitor's (with its consumers) and nothing needs subtracting.
	hb := float64(end.observed - begin.observed)
	if hb <= 0 {
		return fmt.Errorf("no heartbeat reached Observe during the timed phase")
	}
	cpuPerHB := float64(end.procCPU-begin.procCPU) / 1e3 / hb
	// A per-layer metric, not an end-to-end one: on the shared two-core VM
	// this was written on it does not repeat within a tenth (README.md,
	// "Noise"). An untraced run prints it all the same, as information,
	// and -all takes the tracing overhead from the two.
	rep.set("cpu_us_per_hb", cpuPerHB)
	rep.Info["cpu_us_per_hb"] = cpuPerHB
	rep.Info["hb_per_core_s"] = 1e6 / cpuPerHB
	rep.Info["cpu_us_per_hb_kernel_share"] = float64(end.sysCPU-begin.sysCPU) / 1e3 / hb
	rep.Info["cpu_us_per_hb_median_second"] = median(perSecond)
	rep.Info["timed_heartbeats"] = hb
	rep.Info["gen_cpu_us_per_hb"] = float64(g.TimedCPUNs) / 1e3 / float64(g.TimedSent[0]+g.TimedSent[1])

	// ---- generator validity --------------------------------------------
	lateP99 := g.LateP99Us / 1e3
	rep.Info["gen_late_p99_ms"] = lateP99
	rep.Info["gen_late_max_ms"] = g.LateMaxUs / 1e3
	if r.gen.sched == "realtime" {
		rep.Info["gen_realtime"] = 1
	}
	if lateP99 > lateLimitMs {
		rep.Invalid = fmt.Sprintf("generator ran %.2f ms late at p99 (limit %d ms; beats over 3 ms late per twelfth of the run: %v): the offered load was not the planned load",
			lateP99, lateLimitMs, g.LateBuckets)
	}

	if !r.traced {
		return nil
	}

	// ---- per-layer metrics (traced run only) ---------------------------
	rep.set("bench.verdict_lag_p99_ms", percentile(lagS, 99))
	rep.set("gen.late_p99_ms", lateP99)
	rep.set("gen.cpu_us_per_hb", rep.Info["gen_cpu_us_per_hb"])
	rep.set("gen.sent", float64(g.Sent[0]+g.Sent[1]))

	rep.set("transport.rx_dropped", float64(after.UDPDropped-before.UDPDropped))
	rep.set("transport.ingest_gap", float64(gap))
	rep.set("transport.queue_depth_max", float64(sampler.max))
	rep.set("transport.pool_misses", float64(after.PoolMisses-before.PoolMisses))
	rep.set("heartbeat.stale", float64(after.RecvStale-before.RecvStale))
	rep.set("registry.rearms_per_hb", float64(after.Rearms-before.Rearms)/float64(observedLive))
	rep.set("bus.dropped", float64(after.BusDropped-before.BusDropped))

	observeSamples, waitSamples := r.mon.probe.samples()
	waitS := sortedCopy(waitSamples)
	rep.set("transport.ingest_wait_p50_us", percentile(waitS, 50)/1e3)
	rep.set("transport.ingest_wait_p99_us", percentile(waitS, 99)/1e3)
	observeNs := mean(observeSamples)
	rep.set("registry.observe_ns", observeNs)
	if n := after.DecodeCount - before.DecodeCount; n > 0 {
		// A full mean minus a 1-in-64 sample's mean: on a low-rate
		// workload one preempted sample can exceed the whole difference.
		rep.set("heartbeat.handle_self_ns", max((after.DecodeSum-before.DecodeSum)/float64(n)*1e9-observeNs, 0))
	}

	wheelS, watchS, busS := sortedCopy(wheel), sortedCopy(watchLag), sortedCopy(busLag)
	rep.set("registry.wheel_lag_p50_ms", percentile(wheelS, 50))
	rep.set("registry.wheel_lag_p90_ms", percentile(wheelS, 90))
	rep.set("registry.wheel_lag_p99_ms", percentile(wheelS, 99))
	rep.set("core.estimator_wait_p50_ms", median(wait))
	rep.set("bus.delivery_lag_p50_us", percentile(busS, 50)/1e3)
	rep.set("bus.delivery_lag_p99_us", percentile(busS, 99)/1e3)
	if p.workload != "fleet" {
		rep.set("registry.watch_lag_p50_ms", percentile(watchS, 50))
		rep.set("registry.watch_lag_p90_ms", percentile(watchS, 90))
	} else {
		rep.set("federate.fleet_lag_p50_ms", percentile(watchS, 50))
	}

	// A restarted stream's detector is new and its history empty: it
	// counts for nothing rather than negatively.
	var slots int64
	for i, n := range r.mon.slotsEvaluated(names) {
		slots += int64(max(n-slotsBefore[i], 0))
	}
	rep.set("core.slots_closed", float64(slots))
	r.timedReads()
	if r.fl != nil {
		rep.set("persist.save_ms", haltMs)
		r.fl.perLayer(r, rep)
	}
	if err := commonProbes(r.clk, rep); err != nil {
		return err
	}
	return r.writeTrace()
}

// checkConservation verifies that a monitor's datagram accounting closes
// exactly: what the socket queued is what the receiver disposed of, and
// what the receiver accepted is what the registry disposed of.
func checkConservation(rep *report, prefix string, c monCounters, prewarmed uint64) {
	rep.check(prefix+"socket_conservation", c.UDPReceived == c.RecvAccepted+c.RecvStale+c.Foreign,
		"queued %d != accepted %d + stale %d + foreign %d", c.UDPReceived, c.RecvAccepted, c.RecvStale, c.Foreign)
	rep.check(prefix+"ingest_conservation", c.RecvAccepted == c.Observed-prewarmed+c.RegStale+c.InvalidNames,
		"receiver accepted %d != observed %d + registry-stale %d + invalid %d",
		c.RecvAccepted, c.Observed-prewarmed, c.RegStale, c.InvalidNames)
}

func verdictsSeen(p *plan) int64 {
	var n int64
	for i := range p.faults {
		if p.faults[i].receipt != 0 {
			n++
		}
	}
	return n
}

func isClosedErr(err error) bool {
	s := err.Error()
	return strings.Contains(s, "context canceled") || strings.Contains(s, "closed") || strings.Contains(s, "EOF")
}

// timedReads times the registry's bulk read hatches and a scrape, as
// spans of their own.
func (r *liveRun) timedReads() {
	t := r.clk.ns()
	fe, sn := r.mon.timeRegistryReads()
	r.rep.set("registry.foreach_ms", fe)
	r.rep.set("registry.snapshot_ms", sn)
	mid := t + int64(fe*1e6)
	r.rec.add(0, "registry.foreach", t, mid, 0)
	r.rec.add(0, "registry.snapshot", mid, mid+int64(sn*1e6), 0)
	if enc, dec, bytes, err := r.mon.snapshotCodec(); err == nil {
		r.rep.set("persist.encode_ms", enc)
		r.rep.set("persist.decode_ms", dec)
		r.rep.set("persist.snapshot_bytes_per_stream", float64(bytes)/float64(len(r.plan.streams)))
	}
	if r.rep.values["metrics.scrape_ms"] == 0 {
		t0 := time.Now()
		if err := httpGetDiscard(r.mon.baseURL() + "/metrics"); err == nil {
			r.rep.set("metrics.scrape_ms", msSince(t0))
		}
	}
}

// victimSpanCap bounds how many victims get their stage spans written;
// the metrics always use every victim.
const victimSpanCap = 4000

// writeTrace derives each victim's stage spans from its timestamps, adds
// them to the call spans recorded during the run, and writes the file.
func (r *liveRun) writeTrace() error {
	p := r.plan
	step := len(p.faults)/victimSpanCap + 1
	// A victim's stages after τ — wheel, then delivery — are contiguous, so
	// they add up to its verdict lag provided the three clocks readings
	// they are cut from (the detector's τ, the registry's Event.At, the
	// consumer's receipt) come in that order; worst is the largest
	// inversion seen.
	var worst int64
	for i := 0; i < len(p.faults); i += step {
		f := &p.faults[i]
		if f.receipt == 0 || f.tau == 0 || f.eventAt == 0 {
			continue
		}
		id := int64(i + 1)
		at := r.t0 + f.at
		root := r.rec.add(id, "verdict.fault_to_consumer", at, f.receipt, 0)
		r.rec.add(id, "core.estimator_wait", at, f.tau, root)
		r.rec.add(id, "registry.wheel", f.tau, f.eventAt, root)
		deliver := "registry.watch"
		if p.workload == "fleet" {
			deliver = "federate.rollup_to_fleet"
		}
		d := r.rec.add(id, deliver, f.eventAt, f.receipt, root)
		if f.busAt != 0 {
			r.rec.add(id, "bus.delivery", f.eventAt, f.busAt, d)
		}
		worst = max(worst, f.tau-f.eventAt, f.eventAt-f.receipt)
	}
	r.rep.check("victim_stages_sum_to_lag", worst <= int64(time.Millisecond),
		"a victim's stage boundaries are out of order by %v", time.Duration(worst))
	tf := traceFile{Workload: p.workload, Seed: r.rep.Seed, Seconds: r.rep.Seconds,
		Layers: selfByLayer(r.rec.spans), Metrics: make(map[string]float64), Spans: r.rec.spans}
	for _, d := range perLayerDefs {
		tf.Metrics[d.Name] = r.rep.values[d.Name]
	}
	path, err := writeTraceFile(p.workload, tf)
	r.rep.TraceFile = path
	return err
}

func (r *liveRun) teardown() {
	if r.gen != nil {
		r.gen.kill()
	}
	if r.fl != nil {
		r.fl.stop()
	}
	if r.mon != nil {
		r.mon.stop()
	}
	if r.fl != nil && r.fl.stateDir != "" {
		os.RemoveAll(r.fl.stateDir)
		// Have the file system finish with the deleted checkpoints now,
		// not during whatever runs next.
		syscall.Sync()
	}
}

// depthSampler polls the ingest queue depth during a traced run.
type depthSampler struct {
	max        int
	quit, done chan struct{}
}

func startDepthSampler(m *monitor) *depthSampler {
	s := &depthSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.max = max(s.max, m.queueDepth())
			}
		}
	}()
	return s
}

// stop ends the polling; max is final once it returns.
func (s *depthSampler) stop() {
	close(s.quit)
	<-s.done
}

// stormTaps are the storm workload's in-process subscribers: one per
// rack, one per zone, each drained by its own goroutine.
type stormTaps struct {
	filters []string
	taps    []*busTap

	rack, zone, dropped uint64 // suspects seen per kind of filter, after close
}

func openStormTaps(m *monitor) (*stormTaps, error) {
	s := &stormTaps{}
	for _, f := range stormFilters(stormZones, stormRacks) {
		if f == "dc/#" {
			continue // the /watch connection's filter
		}
		// Deep enough for the burst a partition sends this filter's way.
		buf := 4 * stormMembers
		if !strings.Contains(f, "/rack-") {
			buf *= stormRacks
		}
		t, err := m.tapBus(f, buf, nil)
		if err != nil {
			return nil, err
		}
		s.filters = append(s.filters, f)
		s.taps = append(s.taps, t)
	}
	return s, nil
}

// close detaches the taps and tallies what each kind saw.
func (s *stormTaps) close() {
	for i, t := range s.taps {
		_, n, d, _ := t.closeTap()
		s.dropped += d
		if strings.Contains(s.filters[i], "/rack-") {
			s.rack += n
		} else {
			s.zone += n
		}
	}
}

// check verifies the trie routed every suspect to exactly the rack and
// the zone it belongs to.
func (s *stormTaps) check(rep *report, suspects uint64) {
	rep.check("storm_rack_filters_exact", s.rack == suspects && s.dropped == 0, "rack taps saw %d of %d suspects, dropped %d", s.rack, suspects, s.dropped)
	rep.check("storm_zone_filters_exact", s.zone == suspects, "zone taps saw %d of %d suspects", s.zone, suspects)
}
