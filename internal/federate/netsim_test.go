package federate

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/wire"
)

// The acceptance scenario from the issue: 2 regions × 3 leaves × 10k
// streams under one regional aggregator. Killing a leaf must re-delegate
// its cohorts to survivors within ≤ 3 digest intervals, with zero lost
// failure transitions at the aggregator across the handoff, and /fleet
// must reflect the post-handoff ownership. Heartbeats feed the leaf
// registries directly (the netsim fabric carries only federation
// traffic — digests up, assignment tables down), and everything runs on
// one clock.Sim, so the run is deterministic.

const (
	fedRegions        = 2
	fedLeavesPer      = 3
	fedCohortsPerLeaf = 4
	fedStreams        = 10_000
	fedBeat           = 200 * clock.Millisecond
	fedInterval       = 500 * clock.Millisecond // digest interval
	fedHandoffBound   = 3 * fedInterval
)

// fedStream is one monitored process, fed straight into whichever leaf
// currently owns its cohort (the test driver is the routing tier).
type fedStream struct {
	name  string
	seq   uint64
	alive bool
}

// fedLeaf is one leaf host: a registry plus a Leaf on a netsim node.
type fedLeaf struct {
	id    string
	node  *netsim.Node
	reg   *registry.Registry
	leaf  *Leaf
	dead  bool
	wired bool
}

// pump drains the leaf node's inbox every 25 ms — assignment pushes.
func (fl *fedLeaf) pump(sim *clock.Sim) {
	sim.AfterFunc(25*clock.Millisecond, func(clock.Time) {
		if fl.dead {
			return
		}
		for _, in := range fl.node.Drain() {
			fl.leaf.HandleDatagram(in.Payload)
		}
		fl.pump(sim)
	})
}

func TestNetsimLeafKillRedelegation(t *testing.T) {
	sim := clock.NewSim(0)
	net := netsim.New(sim, netsim.LinkParams{
		DelayBase:  5 * clock.Millisecond,
		JitterMean: 1 * clock.Millisecond,
		JitterStd:  1 * clock.Millisecond,
	}, 42)

	// Aggregator host.
	aggNode := net.AddNode("agg-0", 8192)
	agg := NewAggregator(aggNode, sim, AggregatorOptions{
		ID:               "agg-0",
		DigestInterval:   fedInterval,
		LeafMaxSilence:   fedInterval + fedInterval/5, // 1.2 × interval
		LeafOfflineAfter: 2 * fedInterval / 5,         // 0.4 × interval
	})
	agg.Start()
	var aggPump func()
	aggPump = func() {
		sim.AfterFunc(25*clock.Millisecond, func(clock.Time) {
			for _, in := range aggNode.Drain() {
				agg.HandleDatagram(in.From, in.Payload)
			}
			aggPump()
		})
	}
	aggPump()

	// Leaves: 2 regions × 3, each seeded with 4 cohorts, all weight 1.
	regions := []string{"eu", "us"}
	var leaves []*fedLeaf
	leafByID := make(map[string]*fedLeaf)
	cohortOwner := make(map[string]string) // test's routing table
	var cohorts []string
	for _, region := range regions {
		for i := 0; i < fedLeavesPer; i++ {
			id := fmt.Sprintf("%s/leaf-%d", region, i)
			var owned []string
			for c := 0; c < fedCohortsPerLeaf; c++ {
				f := fmt.Sprintf("%s/cl-%d-%d/#", region, i, c)
				owned = append(owned, f)
				cohorts = append(cohorts, f)
				cohortOwner[f] = id
			}
			reg := registry.New(sim,
				func(string) detector.Detector {
					return detector.NewChen(16, fedBeat, 200*clock.Millisecond)
				},
				registry.Options{
					WheelTick:    50 * clock.Millisecond,
					OfflineAfter: 300 * clock.Millisecond,
					MaxSilence:   600 * clock.Millisecond,
					EvictAfter:   -1,
				})
			reg.Start()
			node := net.AddNode(id, 4096)
			leaf, err := NewLeaf(node, sim, reg, "agg-0", LeafOptions{
				ID:       id,
				Region:   region,
				Cohorts:  owned,
				Interval: fedInterval,
			})
			if err != nil {
				t.Fatalf("NewLeaf(%s): %v", id, err)
			}
			leaf.Start()
			fl := &fedLeaf{id: id, node: node, reg: reg, leaf: leaf}
			fl.pump(sim)
			leaves = append(leaves, fl)
			leafByID[id] = fl
		}
	}

	// Streams, spread round-robin over the cohorts: 10k total. The
	// cohort prefix is the filter minus its trailing "/#".
	streamsByCohort := make(map[string][]*fedStream, len(cohorts))
	for i := 0; i < fedStreams; i++ {
		f := cohorts[i%len(cohorts)]
		name := fmt.Sprintf("%s/s%05d", f[:len(f)-2], i)
		streamsByCohort[f] = append(streamsByCohort[f], &fedStream{name: name, alive: true})
	}

	// The heartbeat driver: every beat, each live stream's arrival goes
	// to the registry of the leaf currently routed for its cohort. A
	// cohort routed to a dead leaf is a black hole (heartbeats to a dead
	// machine are lost) until the test re-routes it post-handoff.
	var beat func()
	beat = func() {
		sim.AfterFunc(fedBeat, func(now clock.Time) {
			for _, f := range cohorts {
				fl := leafByID[cohortOwner[f]]
				if fl == nil || fl.dead {
					continue
				}
				for _, s := range streamsByCohort[f] {
					if !s.alive {
						continue
					}
					s.seq++
					fl.reg.Observe(arrival(s.name, s.seq, now))
				}
			}
			beat()
		})
	}
	beat()

	// Phase 1 — warmup: aggregator converges on the full fleet.
	sim.Advance(3 * clock.Second)
	c := agg.Counters()
	if c.Leaves != fedRegions*fedLeavesPer || c.LiveLeaves != fedRegions*fedLeavesPer {
		t.Fatalf("warmup: leaves %d live %d, want %d", c.Leaves, c.LiveLeaves, fedRegions*fedLeavesPer)
	}
	if c.Cohorts != len(cohorts) {
		t.Fatalf("warmup: cohorts %d, want %d", c.Cohorts, len(cohorts))
	}
	if c.FleetStreams != fedStreams {
		t.Fatalf("warmup: fleet streams %d, want %d", c.FleetStreams, fedStreams)
	}
	for _, f := range cohorts {
		if got := agg.OwnerOf(f); got != cohortOwner[f] {
			t.Fatalf("warmup: owner of %s = %q, want %q", f, got, cohortOwner[f])
		}
	}
	for _, f := range cohorts {
		if _, _, off, _, _ := cohortTotals(t, agg, f); off != 0 {
			t.Fatalf("warmup: cohort %s already has %d offlines", f, off)
		}
	}

	// Phase 2 — kill eu/leaf-1: no more digests, no more assignment
	// processing, its streams' heartbeats go nowhere.
	victim := leafByID["eu/leaf-1"]
	victimCohorts := victim.leaf.Cohorts()
	victim.dead = true
	victim.leaf.Stop()
	killAt := sim.Now()

	// Advance in 50 ms steps until every victim cohort has a live new
	// owner at the aggregator AND that owner has adopted it.
	handedOver := func() bool {
		for _, f := range victimCohorts {
			owner := agg.OwnerOf(f)
			if owner == victim.id || owner == "" {
				return false
			}
			adopted := false
			for _, of := range leafByID[owner].leaf.Cohorts() {
				if of == f {
					adopted = true
					break
				}
			}
			if !adopted {
				return false
			}
		}
		return true
	}
	for !handedOver() {
		if sim.Now().Sub(killAt) > fedHandoffBound {
			t.Fatalf("handoff incomplete after %v (bound %v): owners now %v",
				sim.Now().Sub(killAt), fedHandoffBound, ownersOf(agg, victimCohorts))
		}
		sim.Advance(50 * clock.Millisecond)
	}
	handoff := sim.Now().Sub(killAt)
	t.Logf("re-delegation completed in %v (bound %v); new owners %v",
		handoff, fedHandoffBound, ownersOf(agg, victimCohorts))

	if agg.AssignVersion() == 0 {
		t.Fatal("handoff: assignment version never bumped")
	}
	hist := agg.History()
	if len(hist) == 0 || hist[len(hist)-1].Dead != victim.id {
		t.Fatalf("handoff: history %+v does not record the dead leaf", hist)
	}
	// Deterministic assignment: candidates are same-region-first, then
	// id order; the victim's 4 cohorts round-robin over them.
	wantOwners := []string{"eu/leaf-0", "eu/leaf-2", "us/leaf-0", "us/leaf-1"}
	for i, f := range victimCohorts {
		if got := agg.OwnerOf(f); got != wantOwners[i] {
			t.Fatalf("handoff: owner of %s = %q, want %q", f, got, wantOwners[i])
		}
	}

	// Phase 3 — re-route the victim's streams to their new owners (the
	// routing tier reading the assignment table) and let the new owners'
	// detectors warm up on the resumed heartbeats.
	for _, f := range victimCohorts {
		cohortOwner[f] = agg.OwnerOf(f)
	}
	sim.Advance(2 * clock.Second)
	if got := agg.Counters().FleetStreams; got != fedStreams {
		t.Fatalf("post-handoff: fleet streams %d, want %d (victim's streams not re-absorbed)", got, fedStreams)
	}

	// Phase 4 — crash 50 streams in a re-delegated cohort. Their offline
	// transitions are detected by the NEW owner and must all reach the
	// aggregator's merged totals: the carried-epoch accounting may lose
	// nothing across the handoff.
	crashCohort := victimCohorts[0]
	crashed := streamsByCohort[crashCohort][:50]
	for _, s := range crashed {
		s.alive = false
	}
	sim.Advance(3 * clock.Second)

	_, _, off, _, ok := cohortTotals(t, agg, crashCohort)
	if !ok || off != 50 {
		t.Fatalf("crash: cohort %s merged offline total = %d (ok=%v), want exactly 50 "+
			"(fewer = transitions lost in handoff, more = spurious)", crashCohort, off, ok)
	}
	// And no other cohort saw any offline transition — the handoff
	// itself caused zero spurious failures fleet-wide.
	for _, f := range cohorts {
		if f == crashCohort {
			continue
		}
		if _, _, o, _, _ := cohortTotals(t, agg, f); o != 0 {
			t.Fatalf("crash: innocent cohort %s has %d offline transitions", f, o)
		}
	}

	// Phase 5 — /fleet reflects the post-handoff world.
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/fleet")
	if err != nil {
		t.Fatalf("GET /fleet: %v", err)
	}
	defer res.Body.Close()
	var fleet struct {
		AssignVersion uint64 `json:"assign_version"`
		Leaves        []struct {
			Leaf  string `json:"leaf"`
			State string `json:"state"`
		} `json:"leaves"`
		Cohorts []struct {
			Cohort   string `json:"cohort"`
			Owner    string `json:"owner"`
			Streams  uint32 `json:"streams"`
			Offline  uint32 `json:"offline"`
			Offlines uint64 `json:"offlines_total"`
		} `json:"cohorts"`
		Redelegations []RedelegationRecord `json:"redelegations"`
	}
	if err := json.NewDecoder(res.Body).Decode(&fleet); err != nil {
		t.Fatalf("decode /fleet: %v", err)
	}
	if fleet.AssignVersion != agg.AssignVersion() {
		t.Fatalf("/fleet assign_version %d, want %d", fleet.AssignVersion, agg.AssignVersion())
	}
	states := make(map[string]string)
	for _, l := range fleet.Leaves {
		states[l.Leaf] = l.State
	}
	if states[victim.id] != "offline" {
		t.Fatalf("/fleet: victim leaf state %q, want offline", states[victim.id])
	}
	seen := make(map[string]string)
	var crashRow *struct {
		Cohort   string `json:"cohort"`
		Owner    string `json:"owner"`
		Streams  uint32 `json:"streams"`
		Offline  uint32 `json:"offline"`
		Offlines uint64 `json:"offlines_total"`
	}
	for i := range fleet.Cohorts {
		row := &fleet.Cohorts[i]
		seen[row.Cohort] = row.Owner
		if row.Cohort == crashCohort {
			crashRow = row
		}
	}
	for i, f := range victimCohorts {
		if seen[f] != wantOwners[i] {
			t.Fatalf("/fleet: cohort %s owner %q, want %q", f, seen[f], wantOwners[i])
		}
	}
	if crashRow == nil || crashRow.Offline != 50 || crashRow.Offlines != 50 {
		t.Fatalf("/fleet: crash cohort row %+v, want 50 offline / 50 offlines_total", crashRow)
	}
	if len(fleet.Redelegations) == 0 {
		t.Fatal("/fleet: no redelegation history")
	}
}

func arrival(name string, seq uint64, now clock.Time) heartbeat.Arrival {
	return heartbeat.Arrival{From: name, Seq: seq, Send: now, Recv: now, Inc: 1}
}

func cohortTotals(t *testing.T, agg *Aggregator, f string) (susp, tr, off, ev uint64, ok bool) {
	t.Helper()
	return agg.CohortTotals(f)
}

func ownersOf(agg *Aggregator, fs []string) map[string]string {
	out := make(map[string]string, len(fs))
	for _, f := range fs {
		out[f] = agg.OwnerOf(f)
	}
	return out
}

// TestLeafDigestsFitDatagramsWithFullNotableRings is the byte-budget
// regression for the roll-up: the leaf used to cut digests at
// MaxDigestCohorts rows by count only, and a row with a full notable
// ring of 40-byte peers is ~1 KB, so a 256-cohort leaf made one ~270 KB
// datagram — above UDP's 65 507-byte ceiling, where a real socket fails
// the send (and netsim now does too). The full rings now leave at the
// end of the wheel tick that suspects their streams, as a burst of
// urgent digests; the roll-up after it carries the state counts. Every
// datagram must fit wire.MaxDatagram, every send must succeed, the burst
// must be chunked, the roll-up must carry each cohort exactly once, and
// the union of both must carry each cohort's ring, intact, exactly once.
func TestLeafDigestsFitDatagramsWithFullNotableRings(t *testing.T) {
	const ring = 16 // LeafOptions.MaxNotable's default
	sim := clock.NewSim(0)
	net := netsim.New(sim, netsim.LinkParams{DelayBase: clock.Millisecond}, 1)
	reg := registry.New(sim,
		func(string) detector.Detector { return detector.NewFixed(300*clock.Millisecond, 0) },
		registry.Options{WheelTick: 10 * clock.Millisecond, MaxSilence: -1, EvictAfter: -1})
	reg.Start()
	defer reg.Stop()

	var filters []string
	for c := 0; c < MaxDigestCohorts; c++ {
		filters = append(filters, fmt.Sprintf("r/cohort-%03d/#", c))
	}
	node, aggNode := net.AddNode("r/leaf-0", 16), net.AddNode("agg-0", 4096)
	leaf, err := NewLeaf(node, sim, reg, "agg-0", LeafOptions{
		ID: "r/leaf-0", Region: "r", Cohorts: filters, BusBuf: 2 * ring * MaxDigestCohorts})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Stop()
	for c := 0; c < MaxDigestCohorts; c++ {
		for j := 0; j < ring; j++ { // 40-byte stream names
			reg.Observe(arrival(fmt.Sprintf("r/cohort-%03d/%s-%02d", c, strings.Repeat("h", 24), j), 1, sim.Now()))
		}
	}
	sim.Advance(clock.Second) // every stream misses its freshness point
	leaf.Rollup(sim.Now())
	sim.Advance(clock.Second)

	c := leaf.Counters()
	if c.SendErrors != 0 || c.UrgentSent < 2 || c.DigestsSent != 1 {
		t.Fatalf("send errors = %d, urgent sent = %d, digests sent = %d; want 0, a chunked burst, and one roll-up datagram",
			c.SendErrors, c.UrgentSent, c.DigestsSent)
	}
	if _, dropped := net.Stats(); dropped != 0 {
		t.Fatalf("netsim dropped %d datagrams", dropped)
	}
	rings := make(map[string]int, MaxDigestCohorts)    // rows carrying a ring, urgent or periodic
	periodic := make(map[string]int, MaxDigestCohorts) // periodic rows
	var urgentBytes uint64
	for _, in := range aggNode.Drain() {
		if len(in.Payload) > wire.MaxDatagram {
			t.Fatalf("%d-byte datagram exceeds wire.MaxDatagram", len(in.Payload))
		}
		msg, err := Decode(in.Payload)
		d := msg.Digest
		if msg.Urgent != nil {
			d = msg.Urgent
			urgentBytes += uint64(len(in.Payload))
		}
		if err != nil || d == nil {
			t.Fatalf("datagram does not decode as a digest: %v", err)
		}
		for _, row := range d.Cohorts {
			if msg.Digest != nil {
				if row.Suspected != ring {
					t.Fatalf("%s: %d suspected in the roll-up, want %d", row.Filter, row.Suspected, ring)
				}
				periodic[row.Filter]++
			}
			if len(row.Notable) == 0 {
				continue
			}
			if len(row.Notable) != ring || row.Suspects != ring {
				t.Fatalf("%s: %d notables, %d suspects; want %d each", row.Filter, len(row.Notable), row.Suspects, ring)
			}
			rings[row.Filter]++
		}
	}
	if urgentBytes != c.UrgentBytes {
		t.Fatalf("urgent bytes received %d, counted %d", urgentBytes, c.UrgentBytes)
	}
	for _, f := range filters {
		if rings[f] != 1 || periodic[f] != 1 {
			t.Fatalf("cohort %s: ring carried %d times, roll-up row %d times; want exactly once each", f, rings[f], periodic[f])
		}
	}
}
