package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// The fleet workload's extra machinery: a second monitor that also
// watches the canaries and gossips with the first, the federation leaf
// on the first monitor, an active/standby aggregator pair, and the
// benchmark's own drivers — the roll-up ticker, the operator polling
// /fleet, and a /metrics scraper.

const fleetCheckpoint = 5 * time.Second

type fleetRig struct {
	clk *benchClock

	udp2 udpSocket
	reg2 registryHandle
	mon2 *monitor
	pre2 uint64 // pre-warm arrivals fed to the second monitor
	aggs [2]*aggNode

	leafEP   *countingEndpoint
	gossipEP *countingEndpoint
	stateDir string
	leader   *aggNode
	client   *http.Client

	quit chan struct{}
	wg   sync.WaitGroup

	// Written by one driver each, read after stopDrivers.
	rollupMs   []float64
	fleetGetMs []float64
	scrapeMs   []float64
	pollErrs   int
	lastTotal  []uint64  // per cohort: suspects_total at the last poll
	cohortQ    [][]int32 // per cohort: its fault indices, oldest first
	cohortNext []int
	final      *fleetDoc // the leader's /fleet after the last roll-up
	finalErr   error
}

func newFleetRig(clk *benchClock, traced bool) (*fleetRig, error) {
	f := &fleetRig{clk: clk, quit: make(chan struct{}),
		client: &http.Client{Timeout: 2 * time.Second}}
	var socks [3]udpSocket
	for i := range socks {
		s, err := bindUDP()
		if err != nil {
			return nil, err
		}
		socks[i] = s
	}
	f.udp2 = socks[2]
	for i, id := range []string{"agg-a", "agg-b"} {
		n, err := startAggNode(clk, id, socks[i], socks[1-i].Addr(), fleetRollup, traced)
		if err != nil {
			return nil, err
		}
		f.aggs[i] = n
	}
	return f, nil
}

// prepare is the fleet's share of a set-up pass: the second monitor's
// registry, holding only the canaries.
func (f *fleetRig) prepare(r *liveRun, p *plan, epoch int64) {
	f.reg2 = newRegistry(r.clk, monitorOpts{CfgOf: cfgOfName})
	f.pre2 = 0
	for i := range p.streams {
		if sp := &p.streams[i]; sp.dual {
			prewarm(f.reg2, sp.name, epoch+sp.phase, sp.prewarm, p.classes[sp.class].interval)
			f.pre2 += uint64(sp.prewarm)
		}
	}
}

// wire attaches gossip and the federation leaf to the first monitor and
// starts the second, in sfdmon's order.
func (f *fleetRig) wire(r *liveRun) error {
	mon2, err := startMonitor(r.clk, f.udp2, f.reg2, monitorOpts{CfgOf: cfgOfName})
	if err != nil {
		return err
	}
	f.mon2 = mon2
	f.gossipEP = r.mon.attachGossip("mon-a", []string{f.udp2.Addr()}, r.rep.Seed)
	mon2.attachGossip("mon-b", []string{r.mon.udpAddr()}, r.rep.Seed+1)
	cohorts := make([]string, fleetCohorts)
	for c := range cohorts {
		cohorts[c] = fmt.Sprintf("fleet/c-%02d/#", c)
	}
	f.leafEP, err = r.mon.attachLeaf("leaf-0", cohorts, []string{f.aggs[0].udp.Addr(), f.aggs[1].udp.Addr()}, fleetRollup)
	if err != nil {
		return err
	}
	r.mon.attachForeign()
	mon2.attachForeign()
	mon2.run()
	return nil
}

// fleetDoc is the slice of /fleet the operator reads.
type fleetDoc struct {
	Aggregator string `json:"aggregator"`
	Role       string `json:"role"`
	Cohorts    []struct {
		Cohort   string `json:"cohort"`
		Streams  uint32 `json:"streams"`
		Suspects uint64 `json:"suspects_total"`
		Trusts   uint64 `json:"trusts_total"`
		Notable  []struct {
			Peer  string `json:"peer"`
			Event string `json:"event"`
			At    int64  `json:"at_ns"`
		} `json:"notable"`
	} `json:"cohorts"`
	Redelegations []json.RawMessage `json:"redelegations"`
}

func (f *fleetRig) getFleet(n *aggNode) (*fleetDoc, error) {
	resp, err := f.client.Get(n.baseURL() + "/fleet")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("/fleet: status %d", resp.StatusCode)
	}
	var d fleetDoc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

func httpGetDiscard(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// awaitReady rolls up until one aggregator leads and its /fleet shows
// every cohort with every stream — the hierarchy is then in the state a
// long-running deployment would be in.
func (f *fleetRig) awaitReady(r *liveRun) error {
	want := uint32(len(r.plan.streams))
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		r.mon.rollup()
		time.Sleep(50 * time.Millisecond)
		for _, n := range f.aggs {
			d, err := f.getFleet(n)
			if err != nil || d.Role != "leader" || len(d.Cohorts) != fleetCohorts {
				continue
			}
			var streams uint32
			for _, c := range d.Cohorts {
				streams += c.Streams
			}
			if streams == want {
				f.leader = n
				f.lastTotal = make([]uint64, fleetCohorts)
				for i, c := range d.Cohorts { // sorted by cohort name = cohort index
					f.lastTotal[i] = c.Suspects
				}
				return nil
			}
		}
	}
	return fmt.Errorf("fleet: no leading aggregator showed all %d streams in %d cohorts", want, fleetCohorts)
}

// every calls fn at t0+k·period for every k whose instant is still ahead,
// until quit: a grid fixed by the plan, not by when the driver started.
func (f *fleetRig) every(t0 int64, period time.Duration, fn func()) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			now := f.clk.ns()
			next := t0 + (now-t0)/int64(period)*int64(period)
			if next <= now {
				next += int64(period)
			}
			select {
			case <-f.quit:
				return
			case <-time.After(time.Duration(next - now)):
			}
			fn()
		}
	}()
}

func (f *fleetRig) startDrivers(r *liveRun) {
	p := r.plan
	f.cohortQ = make([][]int32, fleetCohorts)
	f.cohortNext = make([]int, fleetCohorts)
	for i := range p.faults {
		c := p.streams[p.faults[i].stream].group
		f.cohortQ[c] = append(f.cohortQ[c], int32(i))
	}
	// The roll-up ticker is the benchmark's own, so the plan can place
	// each victim's freshness point at a chosen phase of it.
	f.every(r.t0, fleetRollup, func() {
		t := f.clk.ns()
		d := r.mon.rollup()
		f.rollupMs = append(f.rollupMs, float64(d)/1e6)
		r.rec.add(0, "federate.rollup", t, t+int64(d), 0)
	})
	f.every(r.t0+int64(fleetPoll)/2, fleetPoll, func() { f.poll(r) })
	f.every(r.t0, time.Second, func() {
		t, t0 := f.clk.ns(), time.Now()
		if err := httpGetDiscard(r.mon.baseURL() + "/metrics"); err == nil {
			f.scrapeMs = append(f.scrapeMs, msSince(t0))
			r.rec.add(0, "metrics.scrape", t, f.clk.ns(), 0)
		}
	})
}

// poll is the operator: one GET /fleet on the kept-alive connection; a
// cohort whose cumulative suspect count rose has delivered a verdict.
func (f *fleetRig) poll(r *liveRun) {
	t, t0 := f.clk.ns(), time.Now()
	d, err := f.getFleet(f.leader)
	if err != nil || len(d.Cohorts) != fleetCohorts {
		f.pollErrs++
		return
	}
	receipt := f.clk.ns()
	f.fleetGetMs = append(f.fleetGetMs, msSince(t0))
	r.rec.add(0, "federate.fleet_get", t, receipt, 0)
	for c := range d.Cohorts {
		row := &d.Cohorts[c]
		for n := f.lastTotal[c]; n < row.Suspects; n++ {
			q := f.cohortQ[c]
			if f.cohortNext[c] >= len(q) || r.t0+r.plan.faults[q[f.cohortNext[c]]].at > receipt {
				r.spurious++ // a suspect no injected fault accounts for
				continue
			}
			flt := &r.plan.faults[q[f.cohortNext[c]]]
			f.cohortNext[c]++
			name := r.plan.streams[flt.stream].name
			flt.receipt = receipt
			r.stampTau(flt, name, receipt)
			for _, nb := range row.Notable {
				if nb.Peer == name && nb.Event == "suspect" && nb.At >= r.t0+flt.at {
					flt.eventAt = nb.At
				}
			}
		}
		f.lastTotal[c] = row.Suspects
	}
}

func (f *fleetRig) stopDrivers() {
	close(f.quit)
	f.wg.Wait()
}

// settle brings the hierarchy to rest after the timed phase: one last
// roll-up so the aggregators hold the leaf's final counts, the last
// /fleet document, then silence on the sockets so every counter is final.
func (f *fleetRig) settle(r *liveRun) {
	r.mon.rollup()
	time.Sleep(150 * time.Millisecond)
	f.final, f.finalErr = f.getFleet(f.leader)
	r.mon.stopGossip()
	f.mon2.stopGossip()
	time.Sleep(50 * time.Millisecond)
}

// account is the second monitor's share of attempted and failed ops.
func (f *fleetRig) account(g *genResult) (attempted, failed int64) {
	c := f.mon2.counters()
	return int64(g.Sent[1]), int64(g.Sent[1]) - (int64(c.Observed) - int64(f.pre2))
}

// check verifies what only the fleet workload can: the aggregators'
// cumulative counts equal the leaf's own, the second monitor's
// accounting closes, checkpoints were written, nothing was re-delegated.
func (f *fleetRig) check(r *liveRun, rep *report) {
	d, err := f.final, f.finalErr
	var suspects, trusts uint64
	if err == nil {
		for _, c := range d.Cohorts {
			suspects += c.Suspects
			trusts += c.Trusts
		}
	}
	c1 := r.mon.counters()
	rep.check("fleet_totals_equal_leaf", err == nil && suspects == c1.Suspects && trusts == c1.Trusts,
		"/fleet shows %d suspects %d trusts, leaf registry %d and %d (err %v)", suspects, trusts, c1.Suspects, c1.Trusts, err)
	rep.check("fleet_no_redelegation", err == nil && len(d.Redelegations) == 0, "%d re-delegations", len(d.Redelegations))
	rep.check("fleet_polls_clean", f.pollErrs == 0, "%d failed /fleet polls", f.pollErrs)

	checkConservation(rep, "monitor2_", f.mon2.counters(), f.pre2)
	snaps, errs := r.mon.checkpointStats()
	rep.check("checkpoints_written", snaps >= 1 && errs == 0, "%d snapshots, %d errors", snaps, errs)
	d1, s1 := r.mon.gossipCounters()
	d2, s2 := f.mon2.gossipCounters()
	rep.check("gossip_exchanged", d1 > 0 && d2 > 0, "digests received: mon-a %d, mon-b %d", d1, d2)
	rep.Info["gossip_global_suspects"] = float64(s1 + s2)
	rep.Info["fleet_polls"] = float64(len(f.fleetGetMs))
	rep.Info["checkpoints"] = float64(snaps)
}

// perLayer fills the federation, gossip and persistence metrics.
func (f *fleetRig) perLayer(r *liveRun, rep *report) {
	rs := sortedCopy(f.rollupMs)
	rep.set("federate.rollup_ms_p50", percentile(rs, 50))
	rep.set("federate.rollup_ms_p99", percentile(rs, 99))
	rep.set("federate.fleet_get_ms", median(f.fleetGetMs))
	rep.set("metrics.scrape_ms", median(f.scrapeMs))
	a := f.leader
	if n := a.mergeCount.Load(); n > 0 {
		rep.set("federate.merge_us", float64(a.mergeNs.Load())/float64(n)/1e3)
	}
	if n := a.rounds(); n > 0 {
		rep.set("federate.mirror_bytes_per_round", float64(a.mirrorBytes.Load())/float64(n))
	}
	if n := r.mon.rollups(); n > 0 {
		rep.set("federate.digest_bytes_per_round", float64(f.leafEP.bytes.Load())/float64(n))
	}
	rep.set("federate.round_us", a.timeRound(f.clk, 20))
	rep.set("gossip.round_us", r.mon.timeGossipRound(20))
	if n := f.gossipEP.sends.Load(); n > 0 {
		rep.set("gossip.digest_bytes", float64(f.gossipEP.bytes.Load())/float64(n))
	}
}

func (f *fleetRig) stop() {
	if f.mon2 != nil {
		f.mon2.stop()
	} else if f.udp2 != nil {
		f.udp2.Close()
	}
	for _, n := range f.aggs {
		if n != nil {
			n.stop()
		}
	}
}
