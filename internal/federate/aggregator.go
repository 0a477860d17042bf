package federate

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/gossip"
	"repro/internal/heartbeat"
	"repro/internal/registry"
)

// AggregatorOptions tunes an Aggregator. Zero values take the documented
// defaults.
type AggregatorOptions struct {
	// ID identifies this aggregator in assignment pushes (default: the
	// endpoint address). In HA mode the id doubles as the election rank:
	// lowest id alive leads.
	ID string
	// Region labels this aggregator in peer beats (optional).
	Region string
	// Peers lists the HA peer aggregator addresses. Empty means
	// standalone (no beats, no mirroring, always leader). Non-empty turns
	// on HA: peer beats and anti-entropy mirrors go to every address each
	// round, and leadership is elected over the learned peer set.
	Peers []string
	// Incarnation distinguishes restarts of the same aggregator id in
	// peer beats (default 1; bump on restart).
	Incarnation uint64
	// JoinGrace is how long a freshly started HA aggregator defers
	// leadership while waiting to hear from (and catch up with) an
	// established peer before concluding it is a cold start (default:
	// 3 × DigestInterval).
	JoinGrace clock.Duration
	// DigestInterval is the leaves' expected roll-up period; it drives
	// the liveness-registry defaults and the anti-entropy cadence
	// (default 1 s). Re-delegation completes within ≤ 3 digest intervals
	// of a leaf death with the default liveness windows below.
	DigestInterval clock.Duration
	// LeafOfflineAfter is how long a leaf stays suspected before it is
	// declared offline and its cohorts are re-delegated (default:
	// DigestInterval — one extra interval of grace after suspicion).
	LeafOfflineAfter clock.Duration
	// LeafMaxSilence is the silence safety net on leaf digest streams
	// (default: 2 × DigestInterval).
	LeafMaxSilence clock.Duration
	// LeafEvictAfter is how long a dead leaf is remembered before its
	// record is dropped entirely (default 10 min).
	LeafEvictAfter clock.Duration
	// MaxNotable bounds the per-cohort recent-notable ring served by
	// /fleet (default 16).
	MaxNotable int
	// HistoryCap bounds the re-delegation history ring (default 32).
	HistoryCap int
	// RegistryFactory overrides the detector factory for the leaf
	// liveness registry (nil → default self-tuning SFD, the dogfood).
	RegistryFactory registry.Factory
}

func (o *AggregatorOptions) normalize(ep gossip.Endpoint) {
	if o.ID == "" {
		o.ID = ep.Addr()
	}
	if o.DigestInterval <= 0 {
		o.DigestInterval = clock.Second
	}
	if o.LeafOfflineAfter <= 0 {
		o.LeafOfflineAfter = o.DigestInterval
	}
	if o.LeafMaxSilence <= 0 {
		o.LeafMaxSilence = 2 * o.DigestInterval
	}
	if o.LeafEvictAfter <= 0 {
		o.LeafEvictAfter = 600 * clock.Second
	}
	if o.Incarnation == 0 {
		o.Incarnation = 1
	}
	if o.JoinGrace <= 0 {
		o.JoinGrace = 3 * o.DigestInterval
	}
	if o.MaxNotable <= 0 {
		o.MaxNotable = 16
	}
	if o.HistoryCap <= 0 {
		o.HistoryCap = 32
	}
}

// AggCounters is the aggregator's monotonic counter snapshot.
type AggCounters struct {
	DigestsReceived uint64 `json:"digests_received"`
	DigestsBad      uint64 `json:"digests_bad"`
	DigestsStale    uint64 `json:"digests_stale"`
	RowsMerged      uint64 `json:"rows_merged"`
	RowsConflicted  uint64 `json:"rows_conflicted"`
	Redelegations   uint64 `json:"redelegations"`
	CohortsMoved    uint64 `json:"cohorts_moved"`
	AssignsSent     uint64 `json:"assigns_sent"`
	SendErrors      uint64 `json:"send_errors,omitempty"`
	AssignOverflow  uint64 `json:"assign_overflow,omitempty"` // table rows left out of a push: a leaf's table outgrew one datagram
	LeafOfflines    uint64 `json:"leaf_offlines"`
	LeafRecoveries  uint64 `json:"leaf_recoveries"`
	// Urgent digests: rows merged, and rows dropped (duplicate or
	// reordered datagram, unknown leaf, or not the cohort's current
	// owner epoch).
	UrgentRowsMerged uint64 `json:"urgent_rows_merged"`
	UrgentStale      uint64 `json:"urgent_stale"`

	// HA counters (all zero outside HA mode).
	PeerBeatsSent     uint64 `json:"peer_beats_sent,omitempty"`
	PeerBeatsReceived uint64 `json:"peer_beats_received,omitempty"`
	PeerBeatsStale    uint64 `json:"peer_beats_stale,omitempty"`
	MirrorsSent       uint64 `json:"mirrors_sent,omitempty"`
	MirrorsReceived   uint64 `json:"mirrors_received,omitempty"`
	MirrorConflicts   uint64 `json:"mirror_conflicts,omitempty"`
	AcksSent          uint64 `json:"acks_sent,omitempty"`
	Promotions        uint64 `json:"promotions,omitempty"`
	Demotions         uint64 `json:"demotions,omitempty"`
	LeadershipChanges uint64 `json:"leadership_changes,omitempty"`

	Leaves          int    `json:"leaves"`         // gauge
	LiveLeaves      int    `json:"live_leaves"`    // gauge
	Cohorts         int    `json:"cohorts"`        // gauge
	OrphanedCohorts int    `json:"orphan_cohorts"` // gauge: owner dead, no survivor yet
	AssignVersion   uint64 `json:"assign_version"` // gauge
	FleetStreams    uint64 `json:"fleet_streams"`  // gauge: sum of cohort stream counts
}

// leafLiveness is a leaf's coarse liveness as seen by the aggregator's
// detector registry (maintained from that registry's bus events).
type leafLiveness uint8

const (
	leafAlive leafLiveness = iota
	leafSuspected
	leafDead
)

func (s leafLiveness) String() string {
	switch s {
	case leafSuspected:
		return "suspected"
	case leafDead:
		return "offline"
	default:
		return "alive"
	}
}

// leafState is the aggregator's record of one leaf. (inc, lastSeq) is
// the merge watermark — peer mirrors raise it too; (directInc,
// directSeq) is the first-hand watermark, advanced only by digests this
// aggregator received itself. The split keeps the liveness heartbeat
// path honest: a direct digest whose mirrored copy arrived first is
// stale for the merge but still a real arrival for the detector.
type leafState struct {
	id        string
	addr      string // datagram source address; assignment pushes go here
	region    string
	weight    float64
	inc       uint64
	lastSeq   uint64
	directInc uint64
	directSeq uint64
	// (urgentInc, urgentSeq) is the urgent-digest watermark, separate
	// from both: urgent digests number their own sequence.
	urgentInc uint64
	urgentSeq uint64
	lastAt    clock.Time
	echoedAV  uint64 // newest assignment version echoed in a digest
	live      leafLiveness
}

// notableAt is a digest notable plus its reporting leaf, for /fleet.
type notableAt struct {
	Notable
	leaf string
}

// cohortMerge is the aggregator's merged view of one cohort. Cumulative
// transition counters reset at the leaves per ownership epoch (owner ×
// leaf incarnation); the aggregator freezes a closing epoch's totals
// into the carried fields, so handoffs and leaf restarts never lose a
// transition — the zero-lost-transitions invariant the acceptance test
// asserts.
type cohortMerge struct {
	filter string
	owner  string

	epochLeaf string
	epochInc  uint64
	last      CohortDigest

	carriedSuspects  uint64
	carriedTrusts    uint64
	carriedOfflines  uint64
	carriedEvictions uint64

	notable   []notableAt
	updatedAt clock.Time
	orphaned  bool
}

func (c *cohortMerge) totals() (suspects, trusts, offlines, evictions uint64) {
	return c.carriedSuspects + c.last.Suspects,
		c.carriedTrusts + c.last.Trusts,
		c.carriedOfflines + c.last.Offlines,
		c.carriedEvictions + c.last.Evictions
}

// closeEpoch freezes the current epoch's cumulative counters into the
// carried totals (called before ownership or incarnation changes).
func (c *cohortMerge) closeEpoch() {
	c.carriedSuspects += c.last.Suspects
	c.carriedTrusts += c.last.Trusts
	c.carriedOfflines += c.last.Offlines
	c.carriedEvictions += c.last.Evictions
	c.last = CohortDigest{Filter: c.filter, QAPMin: 1}
}

// RedelegationRecord is one completed cohort handoff, kept for /fleet.
// Moved is capped at MaxAssignEntries so the record always fits the
// mirror wire; a dead leaf owning more cohorts than that counts the
// overflow in MovedOmitted (the cohort table itself stays exact — only
// this observability record is bounded).
type RedelegationRecord struct {
	Version      uint64        `json:"version"`
	At           clock.Time    `json:"at_ns"`
	Dead         string        `json:"dead_leaf"`
	Moved        []AssignEntry `json:"moved"`
	MovedOmitted uint32        `json:"moved_omitted,omitempty"`
}

// Aggregator is the regional tier above the leaves: it merges cohort
// digests into a fleet-wide view, tracks leaf liveness with an internal
// SFD registry fed by the digest streams themselves, and re-delegates a
// dead leaf's cohorts to survivors through the versioned assignment
// table. All methods are safe for concurrent use.
type Aggregator struct {
	ep   gossip.Endpoint
	clk  clock.Clock
	opts AggregatorOptions

	// liveness is the dogfood registry: one monitored stream per leaf,
	// heartbeaten by digests.
	liveness *registry.Registry
	sub      *registry.Subscription

	mu            sync.Mutex
	leaves        map[string]*leafState
	cohorts       map[string]*cohortMerge
	assignVersion uint64
	history       []RedelegationRecord

	// HA state (peer.go, mirror.go). assignVersionFrom records which peer
	// the current table version was adopted from by mirror ("" when this
	// instance issued it), so equal-version continuation chunks are told
	// apart from split-brain divergence.
	peers             map[string]*peerState
	elector           *Elector
	leaderID          string
	assignVersionFrom string
	startedAt         clock.Time
	peerSeq           uint64

	digestsReceived atomic.Uint64
	digestsBad      atomic.Uint64
	digestsStale    atomic.Uint64
	rowsMerged      atomic.Uint64
	rowsConflicted  atomic.Uint64
	redelegations   atomic.Uint64
	cohortsMoved    atomic.Uint64
	assignsSent     atomic.Uint64
	sendErrors      atomic.Uint64
	leafOfflines    atomic.Uint64
	assignOverflow  atomic.Uint64
	leafRecoveries  atomic.Uint64
	urgentMerged    atomic.Uint64
	urgentStale     atomic.Uint64

	leaderFlag        atomic.Bool
	joining           atomic.Bool
	peerBeatsSent     atomic.Uint64
	peerBeatsReceived atomic.Uint64
	peerBeatsStale    atomic.Uint64
	mirrorsSent       atomic.Uint64
	mirrorsReceived   atomic.Uint64
	mirrorConflicts   atomic.Uint64
	acksSent          atomic.Uint64
	promotions        atomic.Uint64
	demotions         atomic.Uint64
	leadershipChanges atomic.Uint64
	lastMirrorRecv    atomic.Int64

	started atomic.Bool
	stopped atomic.Bool
	loop    clock.Loop // the round loop
}

// NewAggregator builds an Aggregator serving the fleet over ep. A nil
// clock defaults to the real clock. Call Start, then feed received
// datagrams to HandleDatagram (with their source address — assignment
// pushes reply there).
func NewAggregator(ep gossip.Endpoint, clk clock.Clock, opts AggregatorOptions) *Aggregator {
	if clk == nil {
		clk = clock.NewReal()
	}
	opts.normalize(ep)
	liveness := registry.New(clk, opts.RegistryFactory, registry.Options{
		WheelTick:    opts.DigestInterval / 10,
		OfflineAfter: opts.LeafOfflineAfter,
		MaxSilence:   opts.LeafMaxSilence,
		EvictAfter:   opts.LeafEvictAfter,
	})
	a := &Aggregator{
		ep:       ep,
		clk:      clk,
		opts:     opts,
		liveness: liveness,
		sub:      liveness.Subscribe(4096),
		leaves:   make(map[string]*leafState),
		cohorts:  make(map[string]*cohortMerge),
		peers:    make(map[string]*peerState),
	}
	if a.haMode() {
		// Start deferent: follow an established peer until caught up (or
		// JoinGrace decides this is a cold start). See peer.go.
		a.joining.Store(true)
		a.rebuildElectorLocked()
	} else {
		a.leaderID = opts.ID
		a.leaderFlag.Store(true)
	}
	return a
}

// ID returns the aggregator's identity.
func (a *Aggregator) ID() string { return a.opts.ID }

// Options returns the effective configuration after defaulting.
func (a *Aggregator) Options() AggregatorOptions { return a.opts }

// Liveness returns the internal leaf-liveness registry (one stream per
// leaf) so embedders can mount its /status, /metrics, and /watch
// surfaces beside /fleet.
func (a *Aggregator) Liveness() *registry.Registry { return a.liveness }

// Start launches the liveness registry's wheel driver and the round
// loop. Idempotent.
func (a *Aggregator) Start() {
	if !a.started.CompareAndSwap(false, true) {
		return
	}
	a.mu.Lock()
	a.startedAt = a.clk.Now()
	a.mu.Unlock()
	a.liveness.Start()
	a.loop.Every(a.clk, a.roundPeriod(), a.Round)
}

// Stop halts the round loop, waiting out a round in flight, and the
// liveness registry.
func (a *Aggregator) Stop() {
	if a.stopped.CompareAndSwap(false, true) {
		a.loop.Stop()
		a.sub.Close()
		a.liveness.Stop()
	}
}

// roundPeriod is the maintenance-loop cadence: half the digest interval,
// so a leaf death detected mid-interval converts to an assignment push
// without waiting a full interval (it bounds the handoff tail, keeping
// re-delegation within 3 digest intervals of a kill).
func (a *Aggregator) roundPeriod() clock.Duration {
	if p := a.opts.DigestInterval / 2; p > 0 {
		return p
	}
	return a.opts.DigestInterval
}

// Round executes one maintenance round at instant now: reconcile HA
// leadership, absorb liveness transitions (a leaf declared offline
// triggers re-delegation — leader only; orphaned cohorts retry when a
// leaf recovers or joins), re-push the assignment table to live leaves
// that have not echoed the current version yet (anti-entropy — a lost
// push converges next round, leader only), and ship peer beats plus
// state mirrors to HA peers. Start drives it automatically; tests step
// it by hand.
func (a *Aggregator) Round(now clock.Time) {
	a.reconcileLeadership(now)
	var pushes []push
	a.mu.Lock()
	a.drainLivenessLocked(now)
	if a.leaderFlag.Load() {
		pushes = a.antiEntropyLocked()
	}
	pushes = append(pushes, a.buildPeerTrafficLocked(now)...)
	a.mu.Unlock()
	a.send(pushes)
}

// push is one outbound datagram (built under the lock, sent outside
// it). sent, when non-nil, is the counter credited on successful send.
type push struct {
	to      string
	payload []byte
	sent    *atomic.Uint64
}

func (a *Aggregator) send(pushes []push) {
	for _, p := range pushes {
		if a.ep.Send(p.to, p.payload) != nil {
			// Counted, not silent: an endpoint persistently refusing
			// mirror or assignment traffic is replication stalling.
			a.sendErrors.Add(1)
			continue
		}
		if p.sent != nil {
			p.sent.Add(1)
		}
	}
}

// drainLivenessLocked folds the liveness registry's transitions into
// leaf records and fires re-delegation for offline leaves.
func (a *Aggregator) drainLivenessLocked(now clock.Time) {
	recovered := false
	for {
		select {
		case ev, ok := <-a.sub.C():
			if !ok {
				return
			}
			ls := a.leaves[ev.Peer]
			if ls == nil {
				continue
			}
			switch ev.Type {
			case registry.EventSuspect:
				if ls.live == leafAlive {
					ls.live = leafSuspected
				}
			case registry.EventTrust:
				if ls.live == leafDead {
					a.leafRecoveries.Add(1)
					recovered = true
				}
				ls.live = leafAlive
			case registry.EventOffline:
				if ls.live != leafDead {
					ls.live = leafDead
					a.leafOfflines.Add(1)
					// A standby records the death but defers the handoff to
					// its promotion sweep — only the leader issues tables.
					if a.leaderFlag.Load() {
						a.redelegateLocked(ev.Peer, now)
					}
				}
			case registry.EventEvicted:
				// Long-dead leaf: forget the record entirely. Its cohorts
				// were re-delegated (or orphaned) at offline time.
				delete(a.leaves, ev.Peer)
			}
		default:
			if recovered && a.leaderFlag.Load() {
				a.adoptOrphansLocked(now)
			}
			return
		}
	}
}

// HandleDatagram ingests one received federation datagram with its
// source address (transport.Pump and netsim deliveries both carry it;
// assignment pushes and acks go back to the same address).
// Non-federation payloads are ignored silently; malformed federation
// traffic is counted.
func (a *Aggregator) HandleDatagram(from string, payload []byte) {
	if !IsFederation(payload) {
		return
	}
	msg, err := Decode(payload)
	if err != nil {
		a.digestsBad.Add(1)
		return
	}
	switch {
	case msg.Digest != nil:
		a.ingestDigest(from, msg.Digest)
	case msg.PeerBeat != nil:
		a.ingestPeerBeat(from, msg.PeerBeat)
	case msg.Mirror != nil:
		a.ingestMirror(from, msg.Mirror)
	case msg.Urgent != nil:
		a.ingestUrgent(msg.Urgent)
		// Assignments and acks address leaves, not aggregators: ignore.
	}
}

// ingestDigest merges one leaf digest: update the leaf record, feed the
// digest as a heartbeat into the liveness registry, and fold each cohort
// row into the merged fleet view.
func (a *Aggregator) ingestDigest(from string, d *Digest) {
	now := a.clk.Now()
	a.digestsReceived.Add(1)

	a.mu.Lock()
	ls := a.leaves[d.Leaf]
	if ls == nil {
		ls = &leafState{id: d.Leaf, live: leafAlive}
		a.leaves[d.Leaf] = ls
	}
	// Two staleness watermarks. The merge path ratchets on (inc,
	// lastSeq), which peer mirrors also raise; the heartbeat path
	// ratchets on the first-hand watermark only, so a direct digest that
	// lost the race against its own mirrored copy still reaches the
	// liveness detector — mirrors replicate state, not heartbeats, and
	// inflating the detector's gap history from them would manufacture
	// false suspicion on lossy or reordering paths. staleDirect implies
	// staleMerge (the merge watermark is never behind the direct one).
	staleDirect := d.Inc < ls.directInc || (d.Inc == ls.directInc && d.Seq <= ls.directSeq && ls.directSeq != 0)
	staleMerge := d.Inc < ls.inc || (d.Inc == ls.inc && d.Seq <= ls.lastSeq && ls.lastSeq != 0)
	if staleDirect {
		a.mu.Unlock()
		a.digestsStale.Add(1)
		// Still ack: the leaf is reachable even when the digest is a
		// duplicate or reordered.
		a.ackDigest(from, d.Seq, now)
		return
	}
	ls.directInc, ls.directSeq = d.Inc, d.Seq
	ls.addr = from
	ls.lastAt = now
	if !staleMerge {
		ls.region = d.Region
		ls.weight = d.Weight
		ls.inc = d.Inc
		ls.lastSeq = d.Seq
		if d.AssignVersion > ls.echoedAV {
			ls.echoedAV = d.AssignVersion
		}
		// A digest from a dead leaf needs no special casing here: the
		// liveness registry publishes EventTrust for the recovered
		// stream, and the next Round's drain flips the record back to
		// alive and retries any orphaned cohorts.
		for i := range d.Cohorts {
			a.mergeRowLocked(d.Leaf, d.Inc, &d.Cohorts[i], now)
		}
	}
	a.mu.Unlock()
	if staleMerge {
		// Rows already merged from a peer's mirror; only the heartbeat
		// below is new information.
		a.digestsStale.Add(1)
	}

	// Feed the digest as the leaf's liveness heartbeat — the same SFD
	// detector machinery the leaves run on their own streams: the digest
	// sequence is the heartbeat sequence, SentAt the send timestamp, and
	// the leaf incarnation carries through so a restarted leaf's
	// detector starts over.
	a.liveness.Observe(heartbeat.Arrival{
		From: d.Leaf,
		Seq:  d.Seq,
		Send: d.SentAt,
		Recv: now,
		Inc:  d.Inc,
	})
	a.ackDigest(from, d.Seq, now)
}

// ackDigest sends the digest receipt leaves use to track per-aggregator
// reachability (and, through the Leader flag, to learn which aggregator
// is active).
func (a *Aggregator) ackDigest(to string, seq uint64, now clock.Time) {
	a.mu.Lock()
	av := a.assignVersion
	a.mu.Unlock()
	ack := Ack{
		Agg:           a.opts.ID,
		Leader:        a.leaderFlag.Load(),
		AssignVersion: av,
		EchoSeq:       seq,
		SentAt:        now,
	}
	if a.ep.Send(to, ack.Marshal()) == nil {
		a.acksSent.Add(1)
	} else {
		a.sendErrors.Add(1)
	}
}

// mergeRowLocked folds one cohort row into the merged view.
func (a *Aggregator) mergeRowLocked(leaf string, inc uint64, row *CohortDigest, now clock.Time) {
	c := a.cohorts[row.Filter]
	if c == nil {
		// First sight of this cohort: the reporting leaf owns it (the
		// implicit version-0 table is learned from leaf configuration).
		c = &cohortMerge{filter: row.Filter, owner: leaf, last: CohortDigest{Filter: row.Filter, QAPMin: 1}}
		a.cohorts[row.Filter] = c
	}
	if c.owner != leaf {
		// A row from a non-owner: a dead leaf's late digest after
		// re-delegation, or overlapping leaf configs. The assignment
		// table is authoritative — drop the row (the leaf drops the
		// cohort too once the table reaches it).
		a.rowsConflicted.Add(1)
		return
	}
	if c.epochLeaf != leaf || c.epochInc != inc {
		// New ownership epoch (adoption or leaf restart): freeze the old
		// epoch's totals so its transitions survive the handoff.
		c.closeEpoch()
		c.epochLeaf, c.epochInc = leaf, inc
	}
	// Counters are cumulative within an epoch; keep the maximum so an
	// in-epoch reorder can only be a no-op, never a regression.
	prev := c.last
	c.last = *row
	if prev.Suspects > c.last.Suspects {
		c.last.Suspects = prev.Suspects
	}
	if prev.Trusts > c.last.Trusts {
		c.last.Trusts = prev.Trusts
	}
	if prev.Offlines > c.last.Offlines {
		c.last.Offlines = prev.Offlines
	}
	if prev.Evictions > c.last.Evictions {
		c.last.Evictions = prev.Evictions
	}
	c.orphaned = false
	c.updatedAt = now
	a.addNotablesLocked(c, leaf, row.Notable)
	a.rowsMerged.Add(1)
}

// addNotablesLocked appends a row's notables to the cohort's /fleet
// ring, dropping the oldest past MaxNotable.
func (a *Aggregator) addNotablesLocked(c *cohortMerge, leaf string, ns []Notable) {
	for _, n := range ns {
		if len(c.notable) >= a.opts.MaxNotable {
			copy(c.notable, c.notable[1:])
			c.notable = c.notable[:len(c.notable)-1]
		}
		c.notable = append(c.notable, notableAt{Notable: n, leaf: leaf})
	}
}

// ingestUrgent merges one urgent digest: the cumulative transition
// counters, by maximum, and the notables of the cohorts that changed in
// one leaf wheel tick. It only merges. It does not feed the liveness
// registry, because the leaf's detector estimates the digest period
// from periodic arrivals, and extra arrivals would pull its freshness
// point forward and falsely suspect the leaf. It is not acked, and it
// moves neither digest watermark: it has its own per-(leaf, inc) seq,
// which drops duplicate and reordered datagrams. A row is merged only
// into the cohort's current owner epoch for (leaf, inc). An urgent row
// never opens an epoch, because the periodic digest carries the same
// counters at most one interval later. State counts and QoS still come
// from periodic digests alone.
func (a *Aggregator) ingestUrgent(d *Digest) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ls := a.leaves[d.Leaf]
	if ls == nil || d.Inc < ls.urgentInc || (d.Inc == ls.urgentInc && d.Seq <= ls.urgentSeq) {
		a.urgentStale.Add(uint64(len(d.Cohorts)))
		return
	}
	ls.urgentInc, ls.urgentSeq = d.Inc, d.Seq
	for i := range d.Cohorts {
		row := &d.Cohorts[i]
		c := a.cohorts[row.Filter]
		if c == nil || c.owner != d.Leaf || c.epochLeaf != d.Leaf || c.epochInc != d.Inc {
			a.urgentStale.Add(1)
			continue
		}
		maxTransitions(&c.last, row)
		c.last.Omitted = row.Omitted
		a.addNotablesLocked(c, d.Leaf, row.Notable)
		a.urgentMerged.Add(1)
	}
}

// redelegateLocked reassigns a dead leaf's cohorts to survivors. The
// assignment is deterministic: the dead leaf's cohorts in sorted order,
// round-robin over candidates sorted by (same region first, weight
// descending, id ascending). With no live candidate the cohorts are
// orphaned and retried when a leaf recovers or joins.
func (a *Aggregator) redelegateLocked(dead string, now clock.Time) {
	var moved []string
	for f, c := range a.cohorts {
		if c.owner == dead {
			moved = append(moved, f)
		}
	}
	if len(moved) == 0 {
		return
	}
	sort.Strings(moved)

	cands := a.candidatesLocked(dead, a.leaves[dead])
	if len(cands) == 0 {
		for _, f := range moved {
			a.cohorts[f].orphaned = true
		}
		return
	}

	a.assignVersion++
	a.assignVersionFrom = "" // locally issued version
	rec := RedelegationRecord{Version: a.assignVersion, At: now, Dead: dead}
	for i, f := range moved {
		c := a.cohorts[f]
		c.owner = cands[i%len(cands)].id
		c.orphaned = false
		if len(rec.Moved) < MaxAssignEntries {
			rec.Moved = append(rec.Moved, AssignEntry{Cohort: f, Owner: c.owner})
		} else {
			rec.MovedOmitted++
		}
		a.cohortsMoved.Add(1)
	}
	a.redelegations.Add(1)
	a.history = append(a.history, rec)
	if len(a.history) > a.opts.HistoryCap {
		a.history = a.history[len(a.history)-a.opts.HistoryCap:]
	}
	// Pushes go out on the next Round's anti-entropy pass — and keep
	// going out until every live leaf echoes the version, so a lost
	// push only costs one interval.
}

// adoptOrphansLocked re-runs assignment for cohorts whose owner died
// with no survivor available at the time.
func (a *Aggregator) adoptOrphansLocked(now clock.Time) {
	byDead := make(map[string][]string)
	for f, c := range a.cohorts {
		if c.orphaned {
			byDead[c.owner] = append(byDead[c.owner], f)
		}
	}
	deads := make([]string, 0, len(byDead))
	for d := range byDead {
		deads = append(deads, d)
	}
	sort.Strings(deads)
	for _, d := range deads {
		if ls := a.leaves[d]; ls != nil && ls.live != leafDead {
			// The owner itself recovered: cohorts are no longer orphaned.
			for _, f := range byDead[d] {
				a.cohorts[f].orphaned = false
			}
			continue
		}
		a.redelegateLocked(d, now)
	}
}

// candidatesLocked returns live leaves (dead excluded), same-region
// first, heavier first, id as the tiebreak.
func (a *Aggregator) candidatesLocked(dead string, deadLS *leafState) []*leafState {
	region := ""
	if deadLS != nil {
		region = deadLS.region
	}
	var out []*leafState
	for id, ls := range a.leaves {
		if id == dead || ls.live == leafDead {
			continue
		}
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].region == region, out[j].region == region
		if si != sj {
			return si
		}
		if out[i].weight != out[j].weight {
			return out[i].weight > out[j].weight
		}
		return out[i].id < out[j].id
	})
	return out
}

// antiEntropyLocked builds assignment pushes for live leaves that have
// not echoed the current table version. Each leaf gets its own filtered
// table (every cohort it owns — full-replace semantics at the leaf).
func (a *Aggregator) antiEntropyLocked() []push {
	if a.assignVersion == 0 {
		return nil
	}
	byOwner := make(map[string][]AssignEntry)
	for f, c := range a.cohorts {
		byOwner[c.owner] = append(byOwner[c.owner], AssignEntry{Cohort: f, Owner: c.owner})
	}
	var out []push
	ids := make([]string, 0, len(a.leaves))
	for id := range a.leaves {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ls := a.leaves[id]
		if ls.live == leafDead || ls.addr == "" || ls.echoedAV >= a.assignVersion {
			continue
		}
		entries := byOwner[id]
		sort.Slice(entries, func(i, j int) bool { return entries[i].Cohort < entries[j].Cohort })
		msg := Assignment{Agg: a.opts.ID, Version: a.assignVersion, Entries: entries}
		c, spilled := msg.pack()
		a.assignOverflow.Add(uint64(spilled))
		out = append(out, push{to: ls.addr, payload: c.Chunks()[0], sent: &a.assignsSent})
	}
	return out
}

// AssignVersion returns the current assignment-table version.
func (a *Aggregator) AssignVersion() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.assignVersion
}

// OwnerOf returns the current owner of a cohort ("" when unknown).
func (a *Aggregator) OwnerOf(cohort string) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c := a.cohorts[cohort]; c != nil {
		return c.owner
	}
	return ""
}

// CohortTotals returns a cohort's merged cumulative transition totals
// across every ownership epoch; ok is false for unknown cohorts.
func (a *Aggregator) CohortTotals(cohort string) (suspects, trusts, offlines, evictions uint64, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.cohorts[cohort]
	if c == nil {
		return 0, 0, 0, 0, false
	}
	suspects, trusts, offlines, evictions = c.totals()
	return suspects, trusts, offlines, evictions, true
}

// History returns the re-delegation record ring, oldest first.
func (a *Aggregator) History() []RedelegationRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]RedelegationRecord(nil), a.history...)
}

// Counters returns the aggregator's counter snapshot.
func (a *Aggregator) Counters() AggCounters {
	a.mu.Lock()
	leaves, live := len(a.leaves), 0
	for _, ls := range a.leaves {
		if ls.live != leafDead {
			live++
		}
	}
	cohorts, orphans := len(a.cohorts), 0
	var fleetStreams uint64
	for _, c := range a.cohorts {
		if c.orphaned {
			orphans++
		}
		fleetStreams += uint64(c.last.Streams)
	}
	av := a.assignVersion
	a.mu.Unlock()
	return AggCounters{
		DigestsReceived: a.digestsReceived.Load(),
		DigestsBad:      a.digestsBad.Load(),
		DigestsStale:    a.digestsStale.Load(),
		RowsMerged:      a.rowsMerged.Load(),
		RowsConflicted:  a.rowsConflicted.Load(),
		Redelegations:   a.redelegations.Load(),
		CohortsMoved:    a.cohortsMoved.Load(),
		AssignsSent:     a.assignsSent.Load(),
		SendErrors:      a.sendErrors.Load(),
		AssignOverflow:  a.assignOverflow.Load(),
		LeafOfflines:    a.leafOfflines.Load(),
		LeafRecoveries:  a.leafRecoveries.Load(),

		UrgentRowsMerged: a.urgentMerged.Load(),
		UrgentStale:      a.urgentStale.Load(),

		PeerBeatsSent:     a.peerBeatsSent.Load(),
		PeerBeatsReceived: a.peerBeatsReceived.Load(),
		PeerBeatsStale:    a.peerBeatsStale.Load(),
		MirrorsSent:       a.mirrorsSent.Load(),
		MirrorsReceived:   a.mirrorsReceived.Load(),
		MirrorConflicts:   a.mirrorConflicts.Load(),
		AcksSent:          a.acksSent.Load(),
		Promotions:        a.promotions.Load(),
		Demotions:         a.demotions.Load(),
		LeadershipChanges: a.leadershipChanges.Load(),

		Leaves:          leaves,
		LiveLeaves:      live,
		Cohorts:         cohorts,
		OrphanedCohorts: orphans,
		AssignVersion:   av,
		FleetStreams:    fleetStreams,
	}
}
