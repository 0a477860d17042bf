package federate

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// haSeedDigest builds a one-cohort digest for a fake leaf.
func haSeedDigest(leaf, filter string, seq uint64, now clock.Time) []byte {
	return Digest{
		Leaf: leaf, Region: "r", Inc: 1, Seq: seq, SentAt: now, Weight: 1,
		Cohorts: []CohortDigest{{Filter: filter, Streams: 5, Trusted: 5, QAPMin: 1}},
	}.Marshal()
}

// drainEP empties a hub endpoint's receive buffer, returning how many
// datagrams were queued.
func drainEP(ep *transport.MemEndpoint) int {
	n := 0
	for {
		select {
		case <-ep.Recv():
			n++
		default:
			return n
		}
	}
}

// TestSplitBrainEqualVersionResolution is the assignment-table
// version-conflict regression: two aggregators that were briefly both
// leader during a partition each issued a re-delegation at the same
// version with different owners. On heal the conflict must resolve
// deterministically — the lower-id aggregator's table wins, the loser
// adopts it and never bumps the version itself, and the winner
// re-issues at a fresh version so ratcheted leaves converge too.
func TestSplitBrainEqualVersionResolution(t *testing.T) {
	sim := clock.NewSim(0)
	hub := transport.NewHub(0, 0, 1)
	epA := hub.Endpoint("agg-a")
	epB := hub.Endpoint("agg-b")
	epL1 := hub.Endpoint("l1")
	epL2 := hub.Endpoint("l2")
	defer epA.Close()
	defer epB.Close()
	defer epL1.Close()
	defer epL2.Close()

	aggA := NewAggregator(epA, sim, AggregatorOptions{
		ID: "agg-a", Region: "r", Peers: []string{"agg-b"}, DigestInterval: clock.Second})
	aggB := NewAggregator(epB, sim, AggregatorOptions{
		ID: "agg-b", Region: "r", Peers: []string{"agg-a"}, DigestInterval: clock.Second})

	// Identical pre-partition state: l1 owns r/c1/#, l2 owns r/c2/#.
	now := sim.Now()
	for _, agg := range []*Aggregator{aggA, aggB} {
		agg.HandleDatagram("l1", haSeedDigest("l1", "r/c1/#", 1, now))
		agg.HandleDatagram("l2", haSeedDigest("l2", "r/c2/#", 1, now))
	}

	// Partition: both sides claim leadership and each re-delegates a
	// different "dead" leaf, landing on the same table version with
	// divergent owners.
	aggA.joining.Store(false)
	aggA.setLeader("agg-a", now)
	aggB.joining.Store(false)
	aggB.setLeader("agg-b", now)

	aggA.mu.Lock()
	aggA.leaves["l1"].live = leafDead
	aggA.redelegateLocked("l1", now)
	aggA.mu.Unlock()
	aggB.mu.Lock()
	aggB.leaves["l2"].live = leafDead
	aggB.redelegateLocked("l2", now)
	aggB.mu.Unlock()

	if va, vb := aggA.AssignVersion(), aggB.AssignVersion(); va != 1 || vb != 1 {
		t.Fatalf("diverged versions = %d/%d, want 1/1", va, vb)
	}
	if oa, ob := aggA.OwnerOf("r/c1/#"), aggB.OwnerOf("r/c1/#"); oa == ob {
		t.Fatalf("setup failed to diverge owners: both say %q", oa)
	}

	// Heal: mirrors built before either side has heard the other (the
	// simultaneous-exchange worst case), then cross-delivered.
	aggA.mu.Lock()
	chunksA := aggA.buildMirrorChunksLocked(now)
	aggA.mu.Unlock()
	aggB.mu.Lock()
	chunksB := aggB.buildMirrorChunksLocked(now)
	aggB.mu.Unlock()
	for _, c := range chunksA {
		aggB.HandleDatagram("agg-a", c)
	}
	for _, c := range chunksB {
		aggA.HandleDatagram("agg-b", c)
	}

	// Both detected the conflict. B (higher id) adopted A's owners at the
	// contested version without issuing anything; A (lower id, leader)
	// kept its owners and re-issued at version 2.
	if got := aggA.Counters().MirrorConflicts; got != 1 {
		t.Fatalf("aggA mirror conflicts = %d, want 1", got)
	}
	if got := aggB.Counters().MirrorConflicts; got != 1 {
		t.Fatalf("aggB mirror conflicts = %d, want 1", got)
	}
	if v := aggA.AssignVersion(); v != 2 {
		t.Fatalf("winner's re-issued version = %d, want 2", v)
	}
	if v := aggB.AssignVersion(); v != 1 {
		t.Fatalf("loser's version = %d, want 1 (must not self-bump)", v)
	}
	for _, f := range []string{"r/c1/#", "r/c2/#"} {
		if oa, ob := aggA.OwnerOf(f), aggB.OwnerOf(f); oa != ob {
			t.Fatalf("owners of %s still diverge after heal: %q vs %q", f, oa, ob)
		}
	}
	if rb := aggB.Counters().Redelegations; rb != 1 {
		t.Fatalf("loser issued %d re-delegations, want its original 1 only", rb)
	}

	// Next round's mirror from A carries the re-issued version; B ratchets
	// onto it and the pair is fully converged.
	aggA.mu.Lock()
	chunksA = aggA.buildMirrorChunksLocked(now.Add(clock.Second))
	aggA.mu.Unlock()
	for _, c := range chunksA {
		aggB.HandleDatagram("agg-a", c)
	}
	if va, vb := aggA.AssignVersion(), aggB.AssignVersion(); va != 2 || vb != 2 {
		t.Fatalf("post-heal versions = %d/%d, want 2/2", va, vb)
	}
	for _, f := range []string{"r/c1/#", "r/c2/#"} {
		if oa, ob := aggA.OwnerOf(f), aggB.OwnerOf(f); oa != ob {
			t.Fatalf("owners of %s diverge after ratchet: %q vs %q", f, oa, ob)
		}
	}
}

// TestStandbyDefersRedelegationUntilPromotion drives a standby through
// the full deferral arc: follow the active's leadership claim, record a
// leaf death WITHOUT re-delegating, then — when the active's beats go
// silent — get elected, promote, and sweep the deferred re-delegation.
func TestStandbyDefersRedelegationUntilPromotion(t *testing.T) {
	const interval = 200 * clock.Millisecond
	sim := clock.NewSim(0)
	hub := transport.NewHub(0, 0, 1)
	epB := hub.Endpoint("agg-b")
	epA := hub.Endpoint("agg-a") // absorbs aggB's beats and mirrors
	epL1 := hub.Endpoint("l1")
	epL2 := hub.Endpoint("l2")
	defer epB.Close()
	defer epA.Close()
	defer epL1.Close()
	defer epL2.Close()

	aggB := NewAggregator(epB, sim, AggregatorOptions{
		ID: "agg-b", Region: "r", Peers: []string{"agg-a"}, DigestInterval: interval})
	aggB.Start()
	defer aggB.Stop()

	// Scripted drivers: fake active "agg-a" beats twice per interval;
	// fake leaves l1 and l2 digest every interval. Flags flip phases.
	beatsOn, l1On := true, true
	var beatSeq, l1Seq, l2Seq uint64
	var pump func(clock.Time)
	pump = func(now clock.Time) {
		if beatsOn {
			beatSeq++
			aggB.HandleDatagram("agg-a", PeerBeat{
				Agg: "agg-a", Region: "r", Inc: 1, Seq: beatSeq, SentAt: now,
				AssignVersion: 0, Leader: true, Ready: true,
			}.Marshal())
		}
		// Digest cadence: every other pump tick (one per interval).
		if beatSeq%2 == 0 {
			if l1On {
				l1Seq++
				aggB.HandleDatagram("l1", haSeedDigest("l1", "r/c1/#", l1Seq, now))
			}
			l2Seq++
			aggB.HandleDatagram("l2", haSeedDigest("l2", "r/c2/#", l2Seq, now))
		}
		drainEP(epA)
		drainEP(epL1)
		drainEP(epL2)
		sim.AfterFunc(interval/2, pump)
	}
	sim.AfterFunc(interval/2, pump)

	// Phase 1: with the active beating, aggB follows it. One mirror from
	// the active ends the joining phase (catch-up complete).
	sim.Advance(3 * interval)
	aggB.HandleDatagram("agg-a", Mirror{Agg: "agg-a", Inc: 1, Seq: 1, SentAt: sim.Now()}.Marshal())
	sim.Advance(2 * interval)
	if role := aggB.Role(); role != "standby" {
		t.Fatalf("role with live active = %q, want standby", role)
	}
	if id := aggB.LeaderID(); id != "agg-a" {
		t.Fatalf("leader id = %q, want agg-a", id)
	}
	if aggB.Leader() {
		t.Fatal("standby claims leadership")
	}

	// Phase 2: l1 dies. The standby must record the death but defer the
	// re-delegation to the (hypothetical) active.
	l1On = false
	sim.Advance(6 * interval)
	c := aggB.Counters()
	if c.LeafOfflines != 1 {
		t.Fatalf("leaf offlines = %d, want 1", c.LeafOfflines)
	}
	if c.Redelegations != 0 || c.AssignVersion != 0 {
		t.Fatalf("standby re-delegated: redelegations=%d version=%d, want 0/0",
			c.Redelegations, c.AssignVersion)
	}
	if owner := aggB.OwnerOf("r/c1/#"); owner != "l1" {
		t.Fatalf("owner of r/c1/# = %q, want l1 (deferred)", owner)
	}

	// Phase 3: the active's beats stop. The elector promotes aggB, and
	// the promotion sweep re-delegates the deferred death to l2.
	beatsOn = false
	sim.Advance(12 * interval)
	if !aggB.Leader() || aggB.Role() != "leader" {
		t.Fatalf("no promotion after active silence: role=%q", aggB.Role())
	}
	c = aggB.Counters()
	if c.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", c.Promotions)
	}
	if c.Redelegations != 1 || c.AssignVersion != 1 {
		t.Fatalf("promotion sweep: redelegations=%d version=%d, want 1/1",
			c.Redelegations, c.AssignVersion)
	}
	if owner := aggB.OwnerOf("r/c1/#"); owner != "l2" {
		t.Fatalf("owner of r/c1/# after promotion = %q, want l2", owner)
	}
	hist := aggB.History()
	if len(hist) != 1 || hist[0].Dead != "l1" || hist[0].Version != 1 {
		t.Fatalf("history = %+v, want one version-1 record for l1", hist)
	}
}

// TestLeafAggregatorFailover walks a leaf's per-aggregator reachability
// machine: dual-send while both ack, flip one unreachable after ack
// silence, probe it with capped exponential backoff instead of every
// round, revive it on the next ack — and keep sending to everyone when
// no aggregator is reachable (the digest is the leaf's heartbeat).
func TestLeafAggregatorFailover(t *testing.T) {
	const interval = clock.Second // UnreachableAfter defaults to 3s
	sim := clock.NewSim(0)
	hub := transport.NewHub(0, 0, 1)
	epL := hub.Endpoint("leaf-1")
	epA := hub.Endpoint("agg-a")
	epB := hub.Endpoint("agg-b")
	defer epL.Close()
	defer epA.Close()
	defer epB.Close()

	reg := registry.New(sim,
		func(string) detector.Detector { return detector.NewChen(8, clock.Millisecond, clock.Millisecond) },
		registry.Options{EvictAfter: -1})
	leaf, err := NewLeaf(epL, sim, reg, "", LeafOptions{
		ID: "leaf-1", Region: "r", Cohorts: []string{"r/c1/#"},
		Interval: interval, Aggs: []string{"agg-a", "agg-b"},
	})
	if err != nil {
		t.Fatal(err)
	}

	ack := func(agg string, now clock.Time) {
		leaf.HandleDatagramFrom(agg, Ack{Agg: agg, Leader: agg == "agg-a", EchoSeq: 1, SentAt: now}.Marshal())
	}

	// tick advances one interval, rolls up, drains both aggregator
	// inboxes, and returns how many digests each received this round.
	tick := func() (toA, toB int) {
		sim.Advance(interval)
		leaf.Rollup(sim.Now())
		return drainEP(epA), drainEP(epB)
	}

	type round struct {
		ackA, ackB   bool
		wantA, wantB int
	}
	script := []round{
		1:  {ackA: true, ackB: true, wantA: 1, wantB: 1},
		2:  {ackA: true, ackB: true, wantA: 1, wantB: 1},
		3:  {ackB: true, wantA: 1, wantB: 1},             // agg-a dies: silence 1s
		4:  {ackB: true, wantA: 1, wantB: 1},             // silence 2s
		5:  {ackB: true, wantA: 1, wantB: 1},             // silence 3s — at the bound, not past it
		6:  {ackB: true, wantA: 1, wantB: 1},             // flips unreachable, immediate probe
		7:  {ackB: true, wantA: 0, wantB: 1},             // backing off (next probe t=8s)
		8:  {ackB: true, wantA: 1, wantB: 1},             // probe (backoff doubles, next t=12s)
		9:  {ackA: true, ackB: true, wantA: 0, wantB: 1}, // probe answered after the round
		10: {ackA: true, ackB: true, wantA: 1, wantB: 1}, // reachable again: full dual-send
		11: {ackA: true, ackB: true, wantA: 1, wantB: 1},
		12: {ackA: true, ackB: true, wantA: 1, wantB: 1},
		13: {wantA: 1, wantB: 1}, // both die
		14: {wantA: 1, wantB: 1},
		15: {wantA: 1, wantB: 1},
		16: {wantA: 1, wantB: 1}, // both flip; nothing reachable → mandatory sends
		17: {wantA: 1, wantB: 1}, // heartbeat path: every round despite backoff
		18: {wantA: 1, wantB: 1},
	}
	for k := 1; k < len(script); k++ {
		r := script[k]
		gotA, gotB := tick()
		if gotA != r.wantA || gotB != r.wantB {
			t.Fatalf("round %d: digests a=%d b=%d, want a=%d b=%d", k, gotA, gotB, r.wantA, r.wantB)
		}
		now := sim.Now()
		if r.ackA {
			ack("agg-a", now)
		}
		if r.ackB {
			ack("agg-b", now)
		}
		switch k {
		case 5:
			if !leaf.AggReachable("agg-a") {
				t.Fatal("agg-a unreachable before the silence bound")
			}
		case 6:
			if leaf.AggReachable("agg-a") {
				t.Fatal("agg-a still reachable past the silence bound")
			}
			if c := leaf.Counters(); c.AggUnreachable != 1 || c.AggsReachable != 1 {
				t.Fatalf("after flip: unreachable=%d reachable=%d, want 1/1", c.AggUnreachable, c.AggsReachable)
			}
		case 9:
			if !leaf.AggReachable("agg-a") {
				t.Fatal("ack did not revive agg-a")
			}
		case 16:
			if c := leaf.Counters(); c.AggsReachable != 0 {
				t.Fatalf("both silent: aggs reachable = %d, want 0", c.AggsReachable)
			}
		}
	}
	c := leaf.Counters()
	if c.AggUnreachable != 3 { // agg-a once, then both on the double outage
		t.Fatalf("unreachable transitions = %d, want 3", c.AggUnreachable)
	}
	if c.AcksReceived == 0 || c.SendErrors != 0 {
		t.Fatalf("acks=%d sendErrors=%d", c.AcksReceived, c.SendErrors)
	}
}

// TestRedelegationRecordCapped is the mirror-crash regression: a dead
// leaf owning more than MaxAssignEntries cohorts used to produce a
// history record whose Moved list Mirror.Marshal refuses, crash-looping
// every HA round. The record must cap at the wire bound with the
// overflow counted in MovedOmitted, while the cohort table itself moves
// every cohort.
func TestRedelegationRecordCapped(t *testing.T) {
	const extra = 7
	sim := clock.NewSim(0)
	hub := transport.NewHub(0, 0, 1)
	ep := hub.Endpoint("agg-a")
	defer ep.Close()
	agg := NewAggregator(ep, sim, AggregatorOptions{
		ID: "agg-a", Region: "r", Peers: []string{"agg-b"}, DigestInterval: clock.Second})

	now := sim.Now()
	agg.mu.Lock()
	agg.leaves["l-dead"] = &leafState{id: "l-dead", region: "r", weight: 1, live: leafDead}
	agg.leaves["l-live"] = &leafState{id: "l-live", region: "r", weight: 1, live: leafAlive}
	for i := 0; i < MaxAssignEntries+extra; i++ {
		f := fmt.Sprintf("r/c%04d/#", i)
		agg.cohorts[f] = &cohortMerge{filter: f, owner: "l-dead", last: CohortDigest{Filter: f, QAPMin: 1}}
	}
	agg.redelegateLocked("l-dead", now)
	chunks := agg.buildMirrorChunksLocked(now) // must not panic
	agg.mu.Unlock()

	hist := agg.History()
	if len(hist) != 1 {
		t.Fatalf("history records = %d, want 1", len(hist))
	}
	if got := len(hist[0].Moved); got != MaxAssignEntries {
		t.Fatalf("record Moved entries = %d, want the %d cap", got, MaxAssignEntries)
	}
	if hist[0].MovedOmitted != extra {
		t.Fatalf("MovedOmitted = %d, want %d", hist[0].MovedOmitted, extra)
	}
	// The cap bounds only the observability record — every cohort moved.
	if got := agg.Counters().CohortsMoved; got != MaxAssignEntries+extra {
		t.Fatalf("cohorts moved = %d, want %d", got, MaxAssignEntries+extra)
	}
	for i := 0; i < MaxAssignEntries+extra; i++ {
		if owner := agg.OwnerOf(fmt.Sprintf("r/c%04d/#", i)); owner != "l-live" {
			t.Fatalf("cohort %d owner = %q, want l-live", i, owner)
		}
	}
	// Every chunk decodes, fits the MTU, and the record survives intact.
	var gotHist, gotCohorts int
	for i, c := range chunks {
		if len(c) > wire.MaxDatagram {
			t.Fatalf("chunk %d is %d bytes, exceeds wire.MaxDatagram %d", i, len(c), wire.MaxDatagram)
		}
		msg, err := Decode(c)
		if err != nil || msg.Mirror == nil {
			t.Fatalf("chunk %d: decode: %v", i, err)
		}
		gotCohorts += len(msg.Mirror.Cohorts)
		for _, h := range msg.Mirror.History {
			gotHist++
			if len(h.Moved) != MaxAssignEntries || h.MovedOmitted != extra {
				t.Fatalf("mirrored record: moved=%d omitted=%d, want %d/%d",
					len(h.Moved), h.MovedOmitted, MaxAssignEntries, extra)
			}
		}
	}
	if gotHist != 1 || gotCohorts != MaxAssignEntries+extra {
		t.Fatalf("mirrored history=%d cohorts=%d, want 1/%d", gotHist, gotCohorts, MaxAssignEntries+extra)
	}
}

// TestAssignmentPushOverflowCounted: a leaf replaces its table with each
// push, so a table that outgrows one datagram — by MaxAssignEntries or by
// bytes — can only be sent in part. The push must still fit a datagram,
// and the rows left out are counted, not silently dropped.
func TestAssignmentPushOverflowCounted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pad    int // extra bytes per cohort name
		owned  int
		pushed int
	}{
		{"count cap", 0, MaxAssignEntries + 7, MaxAssignEntries},
		// A 21-byte header, then 493 bytes an entry (488-byte cohort, "l",
		// two length prefixes): 121 fit in wire.MaxDatagram.
		{"byte budget", 480, 200, 121},
	} {
		sim := clock.NewSim(0)
		hub := transport.NewHub(0, 0, 1)
		ep := hub.Endpoint("agg-a")
		agg := NewAggregator(ep, sim, AggregatorOptions{ID: "agg-a", Region: "r", DigestInterval: clock.Second})

		agg.mu.Lock()
		agg.leaves["l"] = &leafState{id: "l", addr: "l", region: "r", weight: 1, live: leafAlive}
		for i := 0; i < tc.owned; i++ {
			f := fmt.Sprintf("r/%s%04d/#", strings.Repeat("c", tc.pad), i)
			agg.cohorts[f] = &cohortMerge{filter: f, owner: "l"}
		}
		agg.assignVersion = 1
		pushes := agg.antiEntropyLocked()
		agg.mu.Unlock()
		ep.Close()

		if len(pushes) != 1 || len(pushes[0].payload) > wire.MaxDatagram {
			t.Fatalf("%s: %d pushes, first %d bytes", tc.name, len(pushes), len(pushes[0].payload))
		}
		msg, err := Decode(pushes[0].payload)
		if err != nil || msg.Assign == nil {
			t.Fatalf("%s: push does not decode: %v", tc.name, err)
		}
		got := len(msg.Assign.Entries)
		if got != tc.pushed {
			t.Fatalf("%s: pushed %d of %d entries, want %d", tc.name, got, tc.owned, tc.pushed)
		}
		if over := agg.Counters().AssignOverflow; int(over) != tc.owned-got {
			t.Fatalf("%s: assign_overflow = %d, want %d", tc.name, over, tc.owned-got)
		}
		for i, e := range msg.Assign.Entries { // the sorted head of the table
			if want := fmt.Sprintf("r/%s%04d/#", strings.Repeat("c", tc.pad), i); e.Cohort != want || e.Owner != "l" {
				t.Fatalf("%s: entry %d = %+v", tc.name, i, e)
			}
		}
	}
}

// TestMirrorChunksByteBounded is the oversized-datagram regression:
// chunking by record count alone let long names push a chunk past UDP's
// payload ceiling, where real sockets drop it silently and netsim never
// notices. Chunks must respect wire.MaxDatagram, and a single history record
// wider than a whole datagram must be truncated on the wire (head kept,
// cut counted in MovedOmitted) rather than encoded oversize.
func TestMirrorChunksByteBounded(t *testing.T) {
	sim := clock.NewSim(0)
	hub := transport.NewHub(0, 0, 1)
	ep := hub.Endpoint("agg-a")
	defer ep.Close()
	agg := NewAggregator(ep, sim, AggregatorOptions{
		ID: "agg-a", Region: "r", Peers: []string{"agg-b"}, DigestInterval: clock.Second})

	const nLeaves, nMoved = 80, 100
	wide := strings.Repeat("n", wire.MaxNameLen-12)
	rec := RedelegationRecord{Version: 1, At: 1, Dead: "l-dead"}
	for i := 0; i < nMoved; i++ {
		rec.Moved = append(rec.Moved, AssignEntry{
			Cohort: fmt.Sprintf("%s-%04d/#", wide, i), Owner: wide})
	}
	if min := nMoved * 2 * len(wide); min <= wire.MaxDatagram {
		t.Fatalf("setup: record is only %d+ bytes, want > wire.MaxDatagram", min)
	}
	agg.mu.Lock()
	for i := 0; i < nLeaves; i++ {
		id := fmt.Sprintf("%s-%04d", wide, i)
		agg.leaves[id] = &leafState{id: id, addr: id, region: "r", weight: 1, live: leafAlive}
	}
	agg.history = append(agg.history, rec)
	chunks := agg.buildMirrorChunksLocked(sim.Now())
	agg.mu.Unlock()

	// 80 leaves at ~1KiB each cannot fit one 60000-byte chunk even though
	// the 128-record count cap alone would allow it.
	if len(chunks) < 2 {
		t.Fatalf("chunks = %d, want >= 2 (byte budget must split before the count cap)", len(chunks))
	}
	gotLeaves, gotHist := 0, 0
	for i, c := range chunks {
		if len(c) > wire.MaxDatagram {
			t.Fatalf("chunk %d is %d bytes, exceeds wire.MaxDatagram %d", i, len(c), wire.MaxDatagram)
		}
		msg, err := Decode(c)
		if err != nil || msg.Mirror == nil {
			t.Fatalf("chunk %d: decode: %v", i, err)
		}
		gotLeaves += len(msg.Mirror.Leaves)
		for _, h := range msg.Mirror.History {
			gotHist++
			if len(h.Moved) == 0 || len(h.Moved) >= nMoved {
				t.Fatalf("truncated record kept %d moves, want 0 < n < %d", len(h.Moved), nMoved)
			}
			if int(h.MovedOmitted)+len(h.Moved) != nMoved {
				t.Fatalf("moved %d + omitted %d != %d", len(h.Moved), h.MovedOmitted, nMoved)
			}
			// Head kept in order.
			for j, e := range h.Moved {
				if want := fmt.Sprintf("%s-%04d/#", wide, j); e.Cohort != want {
					t.Fatalf("moved[%d] is not the head of the record", j)
				}
			}
		}
	}
	if gotLeaves != nLeaves || gotHist != 1 {
		t.Fatalf("mirrored leaves=%d history=%d, want %d/1", gotLeaves, gotHist, nLeaves)
	}
	// The local record was not mutated by the wire truncation.
	if hist := agg.History(); len(hist[0].Moved) != nMoved || hist[0].MovedOmitted != 0 {
		t.Fatalf("local record mutated: moved=%d omitted=%d", len(hist[0].Moved), hist[0].MovedOmitted)
	}
}

// TestMirrorDoesNotStarveDirectHeartbeats is the liveness-starvation
// regression: a peer's mirror raising the merge watermark used to make
// ingestDigest drop the leaf's own digests before liveness.Observe,
// manufacturing heartbeat gaps. A direct digest at or below the
// mirrored seq must still reach the detector (first-hand watermark),
// while true first-hand duplicates must not.
func TestMirrorDoesNotStarveDirectHeartbeats(t *testing.T) {
	sim := clock.NewSim(0)
	hub := transport.NewHub(0, 0, 1)
	epA := hub.Endpoint("agg-a")
	epL := hub.Endpoint("l1")
	defer epA.Close()
	defer epL.Close()
	agg := NewAggregator(epA, sim, AggregatorOptions{
		ID: "agg-a", Region: "r", Peers: []string{"agg-b"}, DigestInterval: clock.Second})

	now := sim.Now()
	// The peer has already heard l1 up to seq 10; its mirror arrives first.
	agg.HandleDatagram("agg-b", Mirror{Agg: "agg-b", Inc: 1, Seq: 1, SentAt: now,
		Leaves: []MirrorLeaf{{ID: "l1", Addr: "l1", Region: "r", Weight: 1,
			Inc: 1, LastSeq: 10, LastAt: now, Live: uint8(leafAlive)}}}.Marshal())
	if _, heard := agg.liveness.StatusOf("l1", now); heard {
		t.Fatal("mirror fed the liveness detector; only direct digests may")
	}

	// l1's own digest, delayed behind the mirror: stale for the merge but
	// a real arrival for the detector.
	agg.HandleDatagram("l1", haSeedDigest("l1", "r/c1/#", 7, now))
	if _, heard := agg.liveness.StatusOf("l1", now); !heard {
		t.Fatal("direct digest below the mirrored seq never reached the detector")
	}
	c := agg.Counters()
	if c.DigestsStale != 1 || c.RowsMerged != 0 {
		t.Fatalf("after mirrored-then-direct: stale=%d merged=%d, want 1/0", c.DigestsStale, c.RowsMerged)
	}
	if drainEP(epL) != 1 {
		t.Fatal("merge-stale digest was not acked")
	}

	// A true first-hand duplicate is dropped without another observation.
	agg.HandleDatagram("l1", haSeedDigest("l1", "r/c1/#", 7, now))
	if got := agg.Counters().DigestsStale; got != 2 {
		t.Fatalf("duplicate digest: stale=%d, want 2", got)
	}

	// Fresh digests past both watermarks merge rows again.
	agg.HandleDatagram("l1", haSeedDigest("l1", "r/c1/#", 11, now))
	c = agg.Counters()
	if c.RowsMerged != 1 || c.DigestsStale != 2 {
		t.Fatalf("after fresh digest: merged=%d stale=%d, want 1/2", c.RowsMerged, c.DigestsStale)
	}
}

// TestAckAttributionBootstrap covers the hostname-attribution
// regression: acks whose socket source address matches no configured
// string used to be unattributable forever, flipping every aggregator
// unreachable. Attribution must fall through: canonical resolved form
// of the configured address, then the learned id, then — for a new id
// with exactly one id-less aggregator left — elimination. An ambiguous
// ack (two unlearned candidates) must bind to neither.
func TestAckAttributionBootstrap(t *testing.T) {
	sim := clock.NewSim(0)
	hub := transport.NewHub(0, 0, 1)
	epL := hub.Endpoint("leaf-1")
	defer epL.Close()
	reg := registry.New(sim,
		func(string) detector.Detector { return detector.NewChen(8, clock.Millisecond, clock.Millisecond) },
		registry.Options{EvictAfter: -1})
	leaf, err := NewLeaf(epL, sim, reg, "", LeafOptions{
		ID: "leaf-1", Region: "r", Cohorts: []string{"r/c1/#"},
		Interval: clock.Second, Aggs: []string{"agg-one", "agg-two"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// agg-one behaves like a hostname that resolved at construction; the
	// netsim hub has no resolver, so inject the canonical form directly.
	leaf.mu.Lock()
	leaf.aggs[0].canonical = "10.0.0.1:9090"
	leaf.mu.Unlock()

	now := sim.Now()
	ackFrom := func(from, id string) {
		leaf.HandleDatagramFrom(from, Ack{Agg: id, EchoSeq: 1, SentAt: now}.Marshal())
	}
	ids := func() (a, b string) {
		leaf.mu.Lock()
		defer leaf.mu.Unlock()
		return leaf.aggs[0].id, leaf.aggs[1].id
	}

	// Ambiguous: unknown source, unknown id, two id-less candidates.
	ackFrom("172.16.0.9:1", "agg-x")
	if a, b := ids(); a != "" || b != "" {
		t.Fatalf("ambiguous ack was attributed: ids %q/%q", a, b)
	}

	// Canonical source address binds agg-one and learns its id.
	ackFrom("10.0.0.1:9090", "A1")
	if a, b := ids(); a != "A1" || b != "" {
		t.Fatalf("canonical-addr ack: ids %q/%q, want A1/\"\"", a, b)
	}

	// New id from an unknown source: exactly one id-less aggregator left,
	// so elimination binds it to agg-two.
	ackFrom("172.16.0.9:1", "A2")
	if a, b := ids(); a != "A1" || b != "A2" {
		t.Fatalf("elimination ack: ids %q/%q, want A1/A2", a, b)
	}

	// Learned-id attribution now works from any source, reviving an
	// unreachable aggregator.
	leaf.mu.Lock()
	leaf.aggs[1].unreachable = true
	leaf.mu.Unlock()
	ackFrom("192.168.3.3:7", "A2")
	if !leaf.AggReachable("agg-two") {
		t.Fatal("learned-id ack did not revive agg-two")
	}

	// NewLeaf resolves hostname-form addresses when the system can.
	if ua, err := net.ResolveUDPAddr("udp", "localhost:19001"); err == nil && ua.String() != "localhost:19001" {
		reg2 := registry.New(sim,
			func(string) detector.Detector { return detector.NewChen(8, clock.Millisecond, clock.Millisecond) },
			registry.Options{EvictAfter: -1})
		leaf2, err := NewLeaf(epL, sim, reg2, "", LeafOptions{
			ID: "leaf-2", Region: "r", Cohorts: []string{"r/c2/#"},
			Interval: clock.Second, Aggs: []string{"localhost:19001"},
		})
		if err != nil {
			t.Fatal(err)
		}
		leaf2.mu.Lock()
		canon := leaf2.aggs[0].canonical
		leaf2.mu.Unlock()
		if canon != ua.String() {
			t.Fatalf("canonical = %q, want %q", canon, ua.String())
		}
	}
}
