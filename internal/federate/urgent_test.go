package federate

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/transport"
)

// Urgent digests: a leaf pushes a changed cohort's counters at the end of
// the registry wheel tick that changed them. These drills run one leaf
// dual-homed on an HA aggregator pair over netsim, on one clock.Sim.

const (
	urgTick    = 10 * clock.Millisecond  // leaf registry WheelTick
	urgBeat    = 100 * clock.Millisecond // stream heartbeat period
	urgTimeout = 250 * clock.Millisecond // fixed detector timeout
	urgLink    = 5 * clock.Millisecond   // netsim link delay
	urgLeaf    = "u/leaf-0"
	urgCohorts = 4
)

// urgentRig is the drills' fleet. silent(i, now) reports whether stream
// i skips the beat due at now (churn); nil means every stream beats.
type urgentRig struct {
	t        *testing.T
	sim      *clock.Sim
	reg      *registry.Registry
	leafNode *netsim.Node
	leaf     *Leaf
	aggs     [2]*Aggregator
	names    []string
	silent   func(i int, now clock.Time) bool
}

// newUrgentRig builds the fleet. ep wraps the leaf's node (nil: the node
// itself); maxNotable sizes the aggregators' /fleet rings (0: default).
// Hosts drain their inboxes every pump.
func newUrgentRig(t *testing.T, streams int, pump clock.Duration, maxNotable int, ep func(*clock.Sim, *netsim.Node) gossip.Endpoint) *urgentRig {
	sim := clock.NewSim(0)
	net := netsim.New(sim, netsim.LinkParams{DelayBase: urgLink}, 7)
	r := &urgentRig{t: t, sim: sim}
	for i, id := range []string{"agg-a", "agg-b"} {
		peer := []string{"agg-b", "agg-a"}[i]
		node := net.AddNode(id, 8192)
		opts := haAggOptions(id, peer, 1)
		opts.MaxNotable = maxNotable
		a := NewAggregator(node, sim, opts)
		a.Start()
		r.aggs[i] = a
		every(sim, pump, func() {
			for _, in := range node.Drain() {
				a.HandleDatagram(in.From, in.Payload)
			}
		})
	}
	r.reg = registry.New(sim, func(string) detector.Detector { return detector.NewFixed(urgTimeout, 0) },
		registry.Options{WheelTick: urgTick, OfflineAfter: 10 * clock.Second, MaxSilence: -1, EvictAfter: -1})
	r.reg.Start()
	r.leafNode = net.AddNode(urgLeaf, 4096)
	var lep gossip.Endpoint = r.leafNode
	if ep != nil {
		lep = ep(sim, r.leafNode)
	}
	r.leaf = r.newLeaf(lep, 1)
	every(sim, pump, func() {
		for _, in := range r.leafNode.Drain() {
			r.leaf.HandleDatagramFrom(in.From, in.Payload)
		}
	})
	for i := 0; i < streams; i++ {
		r.names = append(r.names, fmt.Sprintf("u/c-%d/s%03d", i%urgCohorts, i))
	}
	seq := make([]uint64, streams)
	every(sim, urgBeat, func() {
		now := sim.Now()
		for i, name := range r.names {
			if r.silent != nil && r.silent(i, now) {
				continue
			}
			seq[i]++
			r.reg.Observe(arrival(name, seq[i], now))
		}
	})
	return r
}

func (r *urgentRig) newLeaf(ep gossip.Endpoint, inc uint64) *Leaf {
	cohorts := make([]string, urgCohorts)
	for c := range cohorts {
		cohorts[c] = fmt.Sprintf("u/c-%d/#", c)
	}
	l, err := NewLeaf(ep, r.sim, r.reg, "", LeafOptions{ID: urgLeaf, Region: "u", Cohorts: cohorts,
		Interval: fedInterval, Incarnation: inc, Aggs: []string{"agg-a", "agg-b"}})
	if err != nil {
		r.t.Fatal(err)
	}
	return l
}

// every runs fn each period on the simulated clock, forever.
func every(sim *clock.Sim, period clock.Duration, fn func()) {
	sim.AfterFunc(period, func(clock.Time) {
		fn()
		every(sim, period, fn)
	})
}

// fleetTotals sums the /fleet document's cumulative transition totals.
func fleetTotals(a *Aggregator) (suspects, trusts, offlines uint64) {
	for _, c := range a.Fleet().Cohorts {
		suspects, trusts, offlines = suspects+c.Suspects, trusts+c.Trusts, offlines+c.Offlines
	}
	return
}

// checkTotals fails when an aggregator's /fleet totals exceed the leaf
// registry's (exact: they must be equal).
func (r *urgentRig) checkTotals(exact bool) {
	r.t.Helper()
	rc := r.reg.Counters()
	for _, a := range r.aggs {
		s, tr, o := fleetTotals(a)
		if s > rc.Suspects || tr > rc.Trusts || o > rc.Offlines ||
			exact && (s != rc.Suspects || tr != rc.Trusts || o != rc.Offlines) {
			r.t.Fatalf("%s at %v: /fleet totals %d/%d/%d, leaf registry %d/%d/%d (suspects/trusts/offlines)",
				a.ID(), r.sim.Now(), s, tr, o, rc.Suspects, rc.Trusts, rc.Offlines)
		}
	}
}

// TestUrgentVerdictReachesBothAggregatorsWithinATick is the latency
// drill: after one roll-up has opened the cohorts' epochs, a killed
// stream's suspect reaches both halves of the HA pair — CohortTotals and
// the /fleet notables — within one WheelTick plus the link delay of its
// freshness point τ, with no further Rollup.
func TestUrgentVerdictReachesBothAggregatorsWithinATick(t *testing.T) {
	r := newUrgentRig(t, 40, clock.Millisecond, 0, nil)
	r.sim.Advance(msec(1005)) // detectors warm; beats at every 100 ms
	r.leaf.Rollup(r.sim.Now())
	r.sim.Advance(msec(50))
	victim := 6
	cohort := fmt.Sprintf("u/c-%d/#", victim%urgCohorts)
	r.silent = func(i int, _ clock.Time) bool { return i == victim }
	var tau clock.Time
	r.reg.Inspect(r.names[victim], func(d detector.Detector) { tau = d.FreshnessPoint() })

	var seen [2]clock.Time
	for r.sim.Now() < tau.Add(clock.Second) && (seen[0] == 0 || seen[1] == 0) {
		r.sim.Advance(clock.Millisecond)
		for i, a := range r.aggs {
			if seen[i] != 0 {
				continue
			}
			if s, _, _, _, _ := a.CohortTotals(cohort); s == 0 {
				continue
			}
			for _, c := range a.Fleet().Cohorts {
				for _, n := range c.Notable {
					if n.Peer == r.names[victim] && n.Event == "suspect" {
						seen[i] = r.sim.Now()
					}
				}
			}
			if seen[i] == 0 {
				t.Fatalf("%s: suspect counted but not in /fleet notables", a.ID())
			}
		}
	}
	bound := urgTick + urgLink + clock.Millisecond // + the drill's 1 ms step
	for i, a := range r.aggs {
		if seen[i] == 0 || seen[i].Sub(tau) > bound {
			t.Fatalf("%s: suspect visible at %v, τ %v: want within %v", a.ID(), seen[i], tau, bound)
		}
		t.Logf("%s: suspect on /fleet %v after τ", a.ID(), seen[i].Sub(tau))
	}
	if c := r.leaf.Counters(); c.Rollups != 1 || c.UrgentSent == 0 {
		t.Fatalf("rollups %d, urgent sent %d: want 1 and > 0", c.Rollups, c.UrgentSent)
	}
}

// msec is n milliseconds of simulated time.
func msec(n int) clock.Duration { return clock.Duration(n) * clock.Millisecond }

// churn silences stream i for 400 ms of every 2 s, staggered by stream,
// from start on: one suspect and one trust per stream per cycle.
func churn(start clock.Time) func(int, clock.Time) bool {
	return func(i int, now clock.Time) bool {
		if now < start {
			return false
		}
		phase := (now.Sub(start) + msec(10*(i%200))) % (2 * clock.Second)
		return phase < msec(400)
	}
}

// TestUrgentDoesNotFeedLiveness is the isolation drill: 60 s of churn
// (200 transitions a second) keeps urgent digests flowing twenty times
// for every periodic digest, yet each aggregator's
// liveness registry sees exactly one arrival per periodic digest, never
// suspects the leaf and never re-delegates.
func TestUrgentDoesNotFeedLiveness(t *testing.T) {
	r := newUrgentRig(t, 200, 25*clock.Millisecond, 0, nil)
	r.silent = churn(clock.Time(2 * clock.Second))
	r.leaf.Start()
	r.sim.Advance(60*clock.Second + msec(100)) // the 60 s roll-up has landed
	r.checkTotals(false)

	lc := r.leaf.Counters()
	if lc.Rollups != 120 || lc.UrgentSent < 2000 || lc.SendErrors != 0 || lc.BusDropped != 0 {
		t.Fatalf("leaf: %d roll-ups, %d urgent sent, %d send errors, %d bus drops; want 120, ≥ 2000, 0, 0",
			lc.Rollups, lc.UrgentSent, lc.SendErrors, lc.BusDropped)
	}
	for _, a := range r.aggs {
		// The liveness registry also tracks the peer aggregator; read the
		// leaf's own stream.
		lv, ok := a.Liveness().Stats(urgLeaf)
		ac := a.Counters()
		if !ok || lv.Heartbeats != lc.Rollups || ac.DigestsReceived != lc.Rollups {
			t.Fatalf("%s: liveness saw %d leaf arrivals, %d digests received; want one per roll-up (%d)",
				a.ID(), lv.Heartbeats, ac.DigestsReceived, lc.Rollups)
		}
		// A suspicion either recovered (a mistake) or still stands.
		st, _ := a.Liveness().StatusOf(urgLeaf, r.sim.Now())
		if lv.Mistakes != 0 || st != registry.StatusActive || ac.Redelegations != 0 || ac.LeafOfflines != 0 {
			t.Fatalf("%s: leaf %s with %d mistaken suspicions, %d re-delegations, %d leaf offlines; want active and 0",
				a.ID(), st, lv.Mistakes, ac.Redelegations, ac.LeafOfflines)
		}
		if ac.UrgentRowsMerged < lc.UrgentSent/2 || ac.UrgentStale != 0 {
			t.Fatalf("%s: %d urgent rows merged, %d stale; want ≥ %d and 0",
				a.ID(), ac.UrgentRowsMerged, ac.UrgentStale, lc.UrgentSent/2)
		}
	}
}

// urgentChaos impairs the leaf's urgent datagrams only, through a chaos
// endpoint; periodic digests, the leaf's liveness heartbeat, pass
// untouched. last records the newest urgent datagram sent.
type urgentChaos struct {
	*netsim.Node
	urgent *chaos.Endpoint
	last   []byte
}

func (u *urgentChaos) Send(to string, p []byte) error {
	if len(p) > 3 && p[3] == kindUrgent {
		u.last = append(u.last[:0], p...)
		return u.urgent.Send(to, p)
	}
	return u.Node.Send(to, p)
}

// nodeTransport lets chaos.Wrap drive a netsim node's send path.
type nodeTransport struct{ *netsim.Node }

func (nodeTransport) Recv() <-chan transport.Inbound { return nil }
func (nodeTransport) Close() error                   { return nil }

// TestUrgentIdempotentUnderChaos is the idempotence drill: urgent
// datagrams are duplicated, reordered and lost (20 %) while churn runs
// and the leaf restarts. /fleet totals never exceed the leaf registry's,
// equal them after the next periodic digest, no notable appears twice,
// and the dead incarnation's urgent rows are dropped and counted.
func TestUrgentIdempotentUnderChaos(t *testing.T) {
	var uc *urgentChaos
	r := newUrgentRig(t, 200, 25*clock.Millisecond, 1<<16, func(sim *clock.Sim, n *netsim.Node) gossip.Endpoint {
		ctl := chaos.NewController(sim, 11)
		for _, im := range []chaos.Impairment{
			{Kind: chaos.KindLoss, Rate: 0.2},
			{Kind: chaos.KindDuplicate, Rate: 0.3, Delay: chaos.Span(msec(3))},
			{Kind: chaos.KindReorder, Rate: 0.3, Delay: chaos.Span(msec(40))},
		} {
			if _, err := ctl.Arm(im); err != nil {
				t.Fatal(err)
			}
		}
		uc = &urgentChaos{Node: n, urgent: chaos.Wrap(nodeTransport{n}, ctl)}
		return uc
	})
	r.silent = churn(clock.Time(2 * clock.Second))
	r.leaf.Start()
	step := func(d clock.Duration) {
		for end := r.sim.Now().Add(d); r.sim.Now() < end; {
			r.sim.Advance(msec(100))
			r.checkTotals(false)
		}
	}
	step(10*clock.Second + msec(250))

	// Restart the leaf with a bumped incarnation. The last roll-up of the
	// old one carries everything it drained, so no transition is lost.
	r.leaf.Rollup(r.sim.Now())
	r.leaf.Stop()
	stale := append([]byte(nil), uc.last...)
	r.leaf = r.newLeaf(uc, 2)
	r.leaf.Start()
	step(msec(600)) // the new incarnation's first roll-up opens its epochs
	msg, err := Decode(stale)
	if err != nil || msg.Urgent == nil || msg.Urgent.Inc != 1 {
		t.Fatalf("recorded urgent datagram: %+v, %v", msg, err)
	}
	for _, a := range r.aggs {
		before := a.Counters().UrgentStale
		s, tr, o := fleetTotals(a)
		a.HandleDatagram(urgLeaf, stale)
		s2, tr2, o2 := fleetTotals(a)
		if got := a.Counters().UrgentStale - before; got != uint64(len(msg.Urgent.Cohorts)) || s2 != s || tr2 != tr || o2 != o {
			t.Fatalf("%s: dead incarnation's urgent rows: %d counted stale of %d, totals %d/%d/%d → %d/%d/%d",
				a.ID(), got, len(msg.Urgent.Cohorts), s, tr, o, s2, tr2, o2)
		}
	}

	step(10 * clock.Second)
	r.silent = nil
	step(2 * clock.Second) // churn over; the next roll-up carries the rest
	r.checkTotals(true)

	lc := r.leaf.Counters()
	if lc.UrgentSent == 0 || lc.BusDropped != 0 {
		t.Fatalf("leaf: %d urgent sent, %d bus drops", lc.UrgentSent, lc.BusDropped)
	}
	for _, a := range r.aggs {
		if ac := a.Counters(); ac.UrgentRowsMerged == 0 || ac.UrgentStale == 0 || ac.Redelegations != 0 {
			t.Fatalf("%s: %d urgent rows merged, %d stale, %d re-delegations", a.ID(), ac.UrgentRowsMerged, ac.UrgentStale, ac.Redelegations)
		}
		seen := make(map[fleetNotableJSON]bool)
		n := 0
		for _, c := range a.Fleet().Cohorts {
			for _, nb := range c.Notable {
				if seen[nb] {
					t.Fatalf("%s: notable %+v appears twice", a.ID(), nb)
				}
				seen[nb] = true
				n++
			}
		}
		t.Logf("%s: %d distinct notables, %d urgent rows merged, %d stale", a.ID(), n, a.Counters().UrgentRowsMerged, a.Counters().UrgentStale)
	}
}

// TestIngestUrgentMergesOnlyIntoOwnerEpoch steps ingestUrgent's rules by
// hand on a standalone aggregator: merge by maximum into the sender's
// current owner epoch; drop and count everything else; never a liveness
// arrival, never an ack.
func TestIngestUrgentMergesOnlyIntoOwnerEpoch(t *testing.T) {
	sim := clock.NewSim(0)
	net := netsim.New(sim, netsim.LinkParams{}, 1)
	a := NewAggregator(net.AddNode("agg", 64), sim, AggregatorOptions{ID: "agg"})
	net.AddNode("a", 64)
	net.AddNode("b", 64)
	row := func(f string, suspects uint64, notables ...string) CohortDigest {
		cd := CohortDigest{Filter: f, Suspects: suspects, QAPMin: 1}
		for _, p := range notables {
			cd.Notable = append(cd.Notable, Notable{Peer: p, Type: uint8(registry.EventSuspect), At: 1, Inc: 1})
		}
		return cd
	}
	digest := func(leaf string, inc, seq uint64, rows ...CohortDigest) {
		a.HandleDatagram(leaf, Digest{Leaf: leaf, Inc: inc, Seq: seq, Cohorts: rows}.Marshal())
	}
	urgent := func(leaf string, inc, seq uint64, rows ...CohortDigest) {
		a.HandleDatagram(leaf, marshalUrgent(Digest{Leaf: leaf, Inc: inc, Seq: seq, Cohorts: rows}))
	}
	notables := func(f string) int {
		for _, c := range a.Fleet().Cohorts {
			if c.Cohort == f {
				return len(c.Notable)
			}
		}
		return -1
	}
	steps := []struct {
		name                string
		do                  func()
		suspects            uint64 // x/#'s merged total after the step
		notables            int    // x/#'s /fleet notables after the step
		merged, stale, acks uint64 // cumulative
	}{
		{"unknown leaf", func() { urgent("a", 1, 1, row("x/#", 5, "x/p")) }, 0, -1, 0, 1, 0},
		{"digest opens epoch", func() { digest("a", 1, 1, row("x/#", 1)) }, 1, 0, 0, 1, 1},
		{"urgent merges", func() { urgent("a", 1, 1, row("x/#", 3, "x/p")) }, 3, 1, 1, 1, 1},
		{"duplicate", func() { urgent("a", 1, 1, row("x/#", 3, "x/p")) }, 3, 1, 1, 2, 1},
		{"newer seq", func() { urgent("a", 1, 3, row("x/#", 4, "x/q")) }, 4, 2, 2, 2, 1},
		{"reordered seq", func() { urgent("a", 1, 2, row("x/#", 4, "x/r")) }, 4, 2, 2, 3, 1},
		{"lower counters keep max", func() { urgent("a", 1, 4, row("x/#", 2)) }, 4, 2, 3, 3, 1},
		{"unknown cohort", func() { urgent("a", 1, 5, row("y/#", 9)) }, 4, 2, 3, 4, 1},
		{"periodic catches up", func() { digest("a", 1, 2, row("x/#", 4)) }, 4, 2, 3, 4, 2},
		{"other leaf's cohort", func() { digest("b", 1, 1, row("z/#", 0)); urgent("a", 1, 6, row("z/#", 7)) }, 4, 2, 3, 5, 3},
		{"restart closes epoch", func() { digest("a", 2, 1, row("x/#", 0)) }, 4, 2, 3, 5, 4},
		{"dead incarnation", func() { urgent("a", 1, 9, row("x/#", 8, "x/s")) }, 4, 2, 3, 6, 4},
		{"new incarnation", func() { urgent("a", 2, 1, row("x/#", 1, "x/t")) }, 5, 3, 4, 6, 4},
	}
	for _, s := range steps {
		s.do()
		sus, _, _, _, _ := a.CohortTotals("x/#")
		c := a.Counters()
		if sus != s.suspects || notables("x/#") != s.notables || c.UrgentRowsMerged != s.merged ||
			c.UrgentStale != s.stale || c.AcksSent != s.acks {
			t.Fatalf("%s: suspects %d notables %d merged %d stale %d acks %d; want %d %d %d %d %d", s.name,
				sus, notables("x/#"), c.UrgentRowsMerged, c.UrgentStale, c.AcksSent,
				s.suspects, s.notables, s.merged, s.stale, s.acks)
		}
		if hb := a.Liveness().Counters().Heartbeats; hb != c.DigestsReceived {
			t.Fatalf("%s: liveness saw %d arrivals for %d periodic digests", s.name, hb, c.DigestsReceived)
		}
	}
}
