package federate

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/fanout"
	"repro/internal/gossip"
	"repro/internal/registry"
)

// LeafOptions tunes a Leaf. Zero values take the documented defaults.
type LeafOptions struct {
	// ID identifies this leaf fleet-wide — a valid hierarchical stream
	// name (it becomes a monitored stream on the aggregator). Default:
	// the endpoint address.
	ID string
	// Region groups leaves for re-delegation locality: the aggregator
	// prefers same-region survivors when a leaf dies.
	Region string
	// Cohorts are the topic filters this leaf initially owns (e.g.
	// "eu/cluster-3/#"). The aggregator's assignment table supersedes
	// this seed once a higher-versioned table arrives.
	Cohorts []string
	// Incarnation is bumped by a restarted leaf so the aggregator's
	// detector starts its digest stream over (default 1).
	Incarnation uint64
	// Interval is the roll-up period (default 1 s). Every interval the
	// leaf sweeps its registry, folds bus transitions into per-cohort
	// counters, and sends one digest (or several, chunked) — the digest
	// doubles as the leaf's liveness heartbeat, so an idle leaf still
	// sends every interval.
	Interval clock.Duration
	// MaxNotable bounds the notable-transition list per cohort per
	// digest (default 16, capped at the wire bound). Overflow is counted
	// in the digest's Omitted field; consumers needing every transition
	// tap the leaf's /watch stream.
	MaxNotable int
	// WeightFn supplies the leaf's self-assessed accuracy weight in
	// [0,1] — wire gossip.(*Gossiper).Weight here so gossip verdict
	// quality feeds aggregator re-delegation preference. Nil reports 1.
	WeightFn func() float64
	// BusBuf is the capacity of the registry-bus subscription feeding
	// transition counters (default 4096; drop-oldest beyond that, with
	// drops counted in LeafCounters.BusDropped).
	BusBuf int
	// Aggs is the ordered aggregator address list for HA deployments;
	// when set it supersedes the constructor's agg argument. The leaf
	// dual-sends every digest to each address (the standby's fleet view
	// stays within one round of the active's) and tracks per-aggregator
	// reachability from digest acks: an aggregator silent past
	// UnreachableAfter is counted unreachable and probed with capped
	// backoff instead of on every round, until an ack revives it.
	Aggs []string
	// UnreachableAfter is the ack-silence bound before an aggregator is
	// counted unreachable (default: 3 × Interval).
	UnreachableAfter clock.Duration
}

func (o *LeafOptions) normalize(ep gossip.Endpoint) {
	if o.ID == "" {
		o.ID = ep.Addr()
	}
	if o.Incarnation == 0 {
		o.Incarnation = 1
	}
	if o.Interval <= 0 {
		o.Interval = clock.Second
	}
	if o.MaxNotable <= 0 || o.MaxNotable > MaxNotablePerCohort {
		o.MaxNotable = 16
	}
	if o.BusBuf <= 0 {
		o.BusBuf = 4096
	}
	if o.UnreachableAfter <= 0 {
		o.UnreachableAfter = 3 * o.Interval
	}
}

// LeafCounters is the leaf's monotonic counter snapshot.
type LeafCounters struct {
	Rollups        uint64 `json:"rollups"`
	DigestsSent    uint64 `json:"digests_sent"`
	SendErrors     uint64 `json:"send_errors"`
	AssignsApplied uint64 `json:"assigns_applied"`
	AssignsStale   uint64 `json:"assigns_stale"`
	BadDatagrams   uint64 `json:"bad_datagrams"`
	NotableOmitted uint64 `json:"notable_omitted"`
	AcksReceived   uint64 `json:"acks_received"`
	AggUnreachable uint64 `json:"agg_unreachable"` // reachable→unreachable transitions
	AggsReachable  int    `json:"aggs_reachable"`  // gauge
	CohortsOwned   int    `json:"cohorts_owned"`   // gauge
	AssignVersion  uint64 `json:"assign_version"`  // gauge
	StreamsRolled  uint64 `json:"streams_rolled"`  // streams matched into cohorts, cumulative
	StreamsForeign uint64 `json:"streams_foreign"` // swept streams outside every owned cohort
	// BusDropped counts transitions the leaf's bus subscription lost to
	// drop-oldest backpressure: each is missing from the cohort counters,
	// the one way /fleet totals can fall behind the leaf registry's.
	BusDropped     uint64 `json:"bus_dropped"`
	UrgentSent     uint64 `json:"urgent_sent"`     // urgent datagrams sent
	UrgentBytes    uint64 `json:"urgent_bytes"`    // bytes of those datagrams
	UrgentDeferred uint64 `json:"urgent_deferred"` // end-of-tick pushes left to the next tick or roll-up (leaf busy)
}

// cohortState is one owned cohort's accumulator. Transition counters are
// cumulative for the cohort's current ownership epoch (they reset when
// the cohort is adopted, never between digests) so a lost digest cannot
// lose a transition; the notable ring resets every digest, urgent or
// periodic. dirty marks a counter change no digest has carried yet.
type cohortState struct {
	filter    string
	suspects  uint64
	trusts    uint64
	offlines  uint64
	evictions uint64
	notable   []Notable
	omitted   uint32
	dirty     bool
}

// takeRow returns the cohort's cumulative counters with the notables
// queued since the last digest, then empties the ring and clears dirty.
func (c *cohortState) takeRow() CohortDigest {
	cd := CohortDigest{
		Filter:    c.filter,
		Suspects:  c.suspects,
		Trusts:    c.trusts,
		Offlines:  c.offlines,
		Evictions: c.evictions,
		QAPMin:    1,
		Omitted:   c.omitted,
	}
	if len(c.notable) > 0 {
		cd.Notable = append([]Notable(nil), c.notable...)
		c.notable = c.notable[:0]
	}
	c.omitted = 0
	c.dirty = false
	return cd
}

// aggState is the leaf's reachability record for one aggregator in its
// ordered list, maintained from digest acks.
type aggState struct {
	addr        string
	canonical   string // addr resolved to ip:port ("" when unresolvable)
	id          string // learned from acks
	leader      bool   // last ack's leadership claim
	firstSentAt clock.Time
	lastAckAt   clock.Time
	unreachable bool
	probeAt     clock.Time     // next probe while unreachable
	backoff     clock.Duration // current probe backoff
}

// Leaf is one monitor's membership in the federation tier: it owns a set
// of cohorts, rolls them up to the regional aggregator(s) every
// Interval, pushes a cohort's changed counters as an urgent digest at the
// end of the registry wheel tick that changed them, and adopts
// re-delegated cohorts from the aggregators' assignment table. All
// methods are safe for concurrent use.
type Leaf struct {
	ep   gossip.Endpoint
	clk  clock.Clock
	reg  *registry.Registry
	aggs []*aggState // ordered; guarded by mu (slice fixed, records mutate)
	opts LeafOptions

	mu sync.Mutex
	// cohorts maps filter → accumulator for every owned cohort.
	cohorts map[string]*cohortState
	// trie indexes the owned cohorts by filter so cohortOfLocked resolves
	// a stream in O(topic depth) instead of scanning every cohort —
	// drainBus and sweep call it once per stream, so at 1M streams the
	// linear scan is the difference between O(streams) and
	// O(streams × cohorts) per roll-up round. Rebuilt on assignment
	// changes, which are rare.
	trie *fanout.Trie[*cohortState]
	// matchBuf is cohortOfLocked's reusable match buffer (guarded by mu,
	// like the trie lookups themselves).
	matchBuf []*cohortState
	// assignVersion is the newest assignment-table version applied.
	assignVersion uint64
	seq           uint64
	urgentSeq     uint64

	sub    *registry.Subscription
	unhook func() // removes pushUrgent from the registry's tick hooks

	rollups        atomic.Uint64
	digestsSent    atomic.Uint64
	sendErrors     atomic.Uint64
	assignsApplied atomic.Uint64
	assignsStale   atomic.Uint64
	badDatagrams   atomic.Uint64
	notableOmitted atomic.Uint64
	acksReceived   atomic.Uint64
	aggUnreachable atomic.Uint64
	streamsRolled  atomic.Uint64
	streamsForeign atomic.Uint64
	urgentSent     atomic.Uint64
	urgentBytes    atomic.Uint64
	urgentDeferred atomic.Uint64

	started atomic.Bool
	stopped atomic.Bool
	loop    clock.Loop // the roll-up loop
}

// NewLeaf builds a Leaf that rolls reg's streams up to the aggregator at
// address agg over ep (or the ordered opts.Aggs list, which supersedes
// agg, for HA pairs). A nil clock defaults to the real clock. Call
// Start to begin roll-up rounds and feed received datagrams (assignment
// pushes and acks) to HandleDatagramFrom — the same shared-socket
// pattern as gossip. Urgent digests need no Start: NewLeaf hooks them to
// the end of reg's wheel tick, and Stop unhooks them.
func NewLeaf(ep gossip.Endpoint, clk clock.Clock, reg *registry.Registry, agg string, opts LeafOptions) (*Leaf, error) {
	if clk == nil {
		clk = clock.NewReal()
	}
	opts.normalize(ep)
	if err := fanout.ValidateName(opts.ID); err != nil {
		return nil, err
	}
	addrs := opts.Aggs
	if len(addrs) == 0 {
		addrs = []string{agg}
	}
	aggs := make([]*aggState, 0, len(addrs))
	for _, addr := range addrs {
		as := &aggState{addr: addr}
		// Acks are attributed by the datagram's source address, which
		// for a hostname-configured aggregator is its resolved ip:port
		// and never matches the configured string. Resolve once here
		// (best effort — netsim-style names simply don't resolve) so
		// attribution works in either form.
		if ua, err := net.ResolveUDPAddr("udp", addr); err == nil {
			if s := ua.String(); s != addr {
				as.canonical = s
			}
		}
		aggs = append(aggs, as)
	}
	l := &Leaf{
		ep:      ep,
		clk:     clk,
		reg:     reg,
		aggs:    aggs,
		opts:    opts,
		cohorts: make(map[string]*cohortState, len(opts.Cohorts)),
		sub:     reg.Subscribe(opts.BusBuf),
	}
	for _, f := range opts.Cohorts {
		if err := fanout.ValidateFilter(f); err != nil {
			l.sub.Close()
			return nil, err
		}
		l.cohorts[f] = &cohortState{filter: f}
	}
	l.rebuildTrieLocked()
	l.unhook = reg.OnTick(l.pushUrgent)
	return l, nil
}

// rebuildTrieLocked re-indexes l.cohorts into a fresh trie. Filters in
// l.cohorts have already been validated, so Subscribe cannot fail; a
// filter that somehow slipped through falls back to unmatched (counted
// as foreign), never a panic. Must hold mu (or be pre-publication).
func (l *Leaf) rebuildTrieLocked() {
	l.trie = fanout.New[*cohortState]()
	for f, c := range l.cohorts {
		_, _ = l.trie.Subscribe(f, c)
	}
}

// ID returns the leaf's federation identity.
func (l *Leaf) ID() string { return l.opts.ID }

// Options returns the effective configuration after defaulting.
func (l *Leaf) Options() LeafOptions { return l.opts }

// Cohorts returns the currently owned cohort filters, sorted.
func (l *Leaf) Cohorts() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.cohorts))
	for f := range l.cohorts {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// AssignVersion returns the newest applied assignment-table version.
func (l *Leaf) AssignVersion() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.assignVersion
}

// Start launches the roll-up loop. Idempotent.
func (l *Leaf) Start() {
	if !l.started.CompareAndSwap(false, true) {
		return
	}
	l.loop.Every(l.clk, l.opts.Interval, l.Rollup)
}

// Stop halts the roll-up loop, waiting out a roll-up in flight, and
// urgent pushes, and detaches from the registry.
func (l *Leaf) Stop() {
	if l.stopped.CompareAndSwap(false, true) {
		l.loop.Stop()
		l.unhook()
		l.sub.Close()
	}
}

// Rollup executes one roll-up round at instant now: fold queued bus
// transitions into cohort counters, sweep the registry for per-cohort
// state counts and QoS aggregates, and send the digest(s) to the
// aggregator. The digest count — and so the bandwidth — is O(cohorts),
// independent of how many streams the cohorts hold. Start drives it
// automatically; it is exported so tests step rounds by hand.
func (l *Leaf) Rollup(now clock.Time) {
	l.mu.Lock()
	l.drainBusLocked()
	rows := l.sweepLocked()
	digests := l.buildDigestsLocked(now, rows)
	targets := l.targetsLocked(now)
	l.mu.Unlock()

	l.rollups.Add(1)
	l.send(digests, targets, &l.digestsSent)
}

// send sends every datagram to every target, crediting sent per success
// and sendErrors per failure, and returns the bytes sent.
func (l *Leaf) send(datagrams [][]byte, targets []string, sent *atomic.Uint64) (bytes uint64) {
	for _, p := range datagrams {
		for _, to := range targets {
			if l.ep.Send(to, p) == nil {
				sent.Add(1)
				bytes += uint64(len(p))
			} else {
				l.sendErrors.Add(1)
			}
		}
	}
	return bytes
}

// targetsLocked picks this round's send targets and updates per-
// aggregator reachability. Every reachable aggregator gets the digests
// (dual-send — both halves of an HA pair stay one round fresh); an
// aggregator whose acks have been silent past UnreachableAfter flips
// unreachable (counted once per transition) and is probed with capped
// exponential backoff instead of every round. With a single configured
// aggregator — or when every aggregator is unreachable — digests keep
// flowing to all of them regardless: the digest is the leaf's
// heartbeat, and someone has to hear a recovery.
func (l *Leaf) targetsLocked(now clock.Time) []string {
	for _, as := range l.aggs {
		if as.unreachable || as.firstSentAt == 0 {
			continue
		}
		ref := as.lastAckAt
		if ref == 0 {
			ref = as.firstSentAt
		}
		if now.Sub(ref) > l.opts.UnreachableAfter {
			as.unreachable = true
			as.backoff = l.opts.Interval
			as.probeAt = now // probe immediately this round, then back off
			l.aggUnreachable.Add(1)
		}
	}
	out := make([]string, 0, len(l.aggs))
	anyReachable := false
	for _, as := range l.aggs {
		if !as.unreachable {
			anyReachable = true
		}
	}
	for _, as := range l.aggs {
		switch {
		case !as.unreachable, len(l.aggs) == 1, !anyReachable:
			// routine send (or mandatory heartbeat path)
		case now >= as.probeAt:
			as.backoff *= 2
			if limit := 16 * l.opts.Interval; as.backoff > limit {
				as.backoff = limit
			}
			as.probeAt = now.Add(as.backoff)
		default:
			continue // backing off
		}
		if as.firstSentAt == 0 {
			as.firstSentAt = now
		}
		out = append(out, as.addr)
	}
	return out
}

// routineTargetsLocked is targetsLocked without its side effects: the
// aggregators every digest goes to, i.e. the reachable ones, or all of
// them when none is. Probing an unreachable aggregator, and its backoff,
// stay with the periodic digest, whose acks decide reachability.
func (l *Leaf) routineTargetsLocked() []string {
	anyReachable := false
	for _, as := range l.aggs {
		anyReachable = anyReachable || !as.unreachable
	}
	out := make([]string, 0, len(l.aggs))
	for _, as := range l.aggs {
		if !as.unreachable || !anyReachable {
			out = append(out, as.addr)
		}
	}
	return out
}

// drainBusLocked folds transition events since the last round into the
// owning cohort's cumulative counters and notable ring. An event whose
// stream matches no owned cohort is ignored (it belongs to a cohort
// re-delegated away, or to a stream outside the federation's scope).
func (l *Leaf) drainBusLocked() {
	for {
		select {
		case ev, ok := <-l.sub.C():
			if !ok {
				return
			}
			c := l.cohortOfLocked(ev.Peer)
			if c == nil {
				continue
			}
			notable := false
			switch ev.Type {
			case registry.EventSuspect:
				c.suspects++
				notable = true
			case registry.EventTrust:
				c.trusts++
				notable = true
			case registry.EventOffline:
				c.offlines++
				notable = true
			case registry.EventEvicted:
				c.evictions++
			default:
				continue
			}
			c.dirty = true
			if !notable {
				continue
			}
			if len(c.notable) >= l.opts.MaxNotable {
				c.omitted++
				l.notableOmitted.Add(1)
				continue
			}
			c.notable = append(c.notable, Notable{
				Peer: ev.Peer,
				Type: uint8(ev.Type),
				At:   ev.At,
				Inc:  ev.Incarnation,
			})
		default:
			return
		}
	}
}

// cohortOfLocked finds the owned cohort a stream belongs to via the
// cohort trie: O(topic depth), independent of how many cohorts the leaf
// owns. First match in sorted filter order wins when filters overlap —
// the same tie-break the old linear scan applied, so re-delegation
// attribution is stable across the index change. The match buffer is
// reused across calls; nothing allocates on the per-stream path.
func (l *Leaf) cohortOfLocked(peer string) *cohortState {
	l.matchBuf = l.trie.MatchAppend(peer, l.matchBuf[:0])
	var best *cohortState
	for _, c := range l.matchBuf {
		if best == nil || c.filter < best.filter {
			best = c
		}
	}
	return best
}

// cohortRow is one sweep's per-cohort aggregate (state counts + QoS).
type cohortRow struct {
	streams, trusted, suspected, offline uint32
	tdSum, mrSum, qapMin                 float64
	tuned                                uint32
}

// sweepLocked walks every registry stream once and buckets it into its
// owning cohort: O(streams) CPU per round, O(cohorts) output.
func (l *Leaf) sweepLocked() map[string]*cohortRow {
	rows := make(map[string]*cohortRow, len(l.cohorts))
	for f := range l.cohorts {
		rows[f] = &cohortRow{qapMin: 1}
	}
	l.reg.ForEachStream(func(v registry.StreamView) {
		c := l.cohortOfLocked(v.Peer)
		if c == nil {
			l.streamsForeign.Add(1)
			return
		}
		l.streamsRolled.Add(1)
		row := rows[c.filter]
		row.streams++
		switch v.Phase {
		case registry.StreamTrusted:
			row.trusted++
		case registry.StreamSuspected:
			row.suspected++
		case registry.StreamOffline:
			row.offline++
		}
		if v.Tuned {
			row.tuned++
			row.tdSum += v.TD.Seconds()
			row.mrSum += v.MR
			if v.QAP < row.qapMin {
				row.qapMin = v.QAP
			}
		}
	})
	return rows
}

// buildDigestsLocked encodes the round's digests, chunked to the wire
// bounds (row count and datagram bytes), resetting each cohort's notable
// ring. Sorted cohort order keeps digests byte-identical across runs for
// the same state (determinism under clock.Sim).
func (l *Leaf) buildDigestsLocked(now clock.Time, rows map[string]*cohortRow) [][]byte {
	filters := make([]string, 0, len(l.cohorts))
	for f := range l.cohorts {
		filters = append(filters, f)
	}
	sort.Strings(filters)

	weight := 1.0
	if l.opts.WeightFn != nil {
		weight = l.opts.WeightFn()
	}

	entries := make([]CohortDigest, 0, len(filters))
	for _, f := range filters {
		cd := l.cohorts[f].takeRow()
		if row := rows[f]; row != nil {
			cd.Streams, cd.Trusted, cd.Suspected, cd.Offline = row.streams, row.trusted, row.suspected, row.offline
			cd.TDSum, cd.MRSum, cd.QAPMin, cd.Tuned = row.tdSum, row.mrSum, row.qapMin, row.tuned
		}
		entries = append(entries, cd)
	}

	// Always at least one digest (Chunks guarantees it): it is the leaf's
	// heartbeat, and it echoes AssignVersion so the aggregator's
	// anti-entropy settles.
	d := Digest{
		Leaf:          l.opts.ID,
		Region:        l.opts.Region,
		Inc:           l.opts.Incarnation,
		SentAt:        now,
		Weight:        weight,
		AssignVersion: l.assignVersion,
		Cohorts:       entries,
	}
	return d.pack(kindDigest, func() uint64 { l.seq++; return l.seq }).Chunks()
}

// pushUrgent is the registry's end-of-tick hook. When the tick published
// transitions, the cohorts they changed go out at once as urgent digests
// (kindUrgent) instead of waiting up to an Interval for the next Rollup:
// one row per changed cohort with its cumulative counters and drained
// notable ring. The urgent digests go to the aggregators the periodic
// digest routinely reaches, so an HA standby stays as fresh as the
// leader. Coalescing per Tick is the rate cap: at most one push per leaf
// per registry driver wake. The hook never blocks the wheel: with nothing
// queued it returns at once, and while a Rollup holds the lock the queued
// events ride that roll-up or the next tick.
func (l *Leaf) pushUrgent(now clock.Time) {
	if len(l.sub.C()) == 0 || l.stopped.Load() {
		return
	}
	if !l.mu.TryLock() {
		l.urgentDeferred.Add(1)
		return
	}
	l.drainBusLocked()
	var rows []CohortDigest
	for _, c := range l.cohorts {
		if c.dirty {
			rows = append(rows, c.takeRow())
		}
	}
	if len(rows) == 0 { // only foreign streams moved
		l.mu.Unlock()
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Filter < rows[j].Filter })
	d := Digest{
		Leaf:          l.opts.ID,
		Region:        l.opts.Region,
		Inc:           l.opts.Incarnation,
		SentAt:        now,
		AssignVersion: l.assignVersion,
		Cohorts:       rows,
	}
	datagrams := d.pack(kindUrgent, func() uint64 { l.urgentSeq++; return l.urgentSeq }).Chunks()
	targets := l.routineTargetsLocked()
	l.mu.Unlock()
	l.urgentBytes.Add(l.send(datagrams, targets, &l.urgentSent))
}

// HandleDatagramFrom ingests one received federation datagram with its
// source address — for a leaf, assignment-table pushes and digest acks
// (the source address attributes an ack to its aggregator).
// Non-federation payloads (wrong magic) are ignored silently so the
// leaf shares a socket with the heartbeat and gossip stacks; malformed
// federation traffic is counted.
func (l *Leaf) HandleDatagramFrom(from string, payload []byte) {
	if !IsFederation(payload) {
		return
	}
	msg, err := Decode(payload)
	if err != nil {
		l.badDatagrams.Add(1)
		return
	}
	switch {
	case msg.Assign != nil:
		l.applyAssignment(msg.Assign)
	case msg.Ack != nil:
		l.ingestAck(from, msg.Ack)
		// Digests, peer beats, and mirrors address aggregators: ignore.
	}
}

// HandleDatagram is HandleDatagramFrom without a source address, kept
// for single-aggregator embedders; acks then attribute by the sender id
// learned from earlier acks (or trivially, with one aggregator).
func (l *Leaf) HandleDatagram(payload []byte) {
	l.HandleDatagramFrom("", payload)
}

// ingestAck records a digest receipt: refresh the aggregator's
// reachability and note its leadership claim.
func (l *Leaf) ingestAck(from string, ack *Ack) {
	now := l.clk.Now()
	l.acksReceived.Add(1)
	l.mu.Lock()
	if as := l.aggLocked(from, ack.Agg); as != nil {
		as.id = ack.Agg
		as.leader = ack.Leader
		as.lastAckAt = now
		if as.unreachable {
			as.unreachable = false
			as.backoff = 0
			as.probeAt = 0
		}
	}
	l.mu.Unlock()
}

// aggLocked resolves an ack to its aggState: by source address first
// (configured or canonical resolved form), then by the aggregator id
// learned from earlier acks, then — when the id is new and exactly one
// configured aggregator has no learned id — by elimination, so
// attribution can bootstrap even when the socket's source address
// matches no configured form. A single configured aggregator always
// matches trivially.
func (l *Leaf) aggLocked(from, id string) *aggState {
	if from != "" {
		for _, as := range l.aggs {
			if as.addr == from || as.canonical == from {
				return as
			}
		}
	}
	if id != "" {
		var unlearned *aggState
		sole := true
		for _, as := range l.aggs {
			if as.id == id {
				return as
			}
			if as.id == "" {
				if unlearned != nil {
					sole = false
				}
				unlearned = as
			}
		}
		if unlearned != nil && sole {
			return unlearned
		}
	}
	if len(l.aggs) == 1 {
		return l.aggs[0]
	}
	return nil
}

// applyAssignment adopts a newer assignment table: cohorts assigned to
// this leaf are owned (fresh accumulator epoch for newly adopted ones —
// cumulative counters restart per ownership epoch, and the aggregator
// freezes the previous owner's totals), the rest are dropped. Version
// ratchets; stale or duplicate tables are ignored.
func (l *Leaf) applyAssignment(a *Assignment) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a.Version <= l.assignVersion {
		l.assignsStale.Add(1)
		return
	}
	next := make(map[string]*cohortState, len(l.cohorts))
	for _, e := range a.Entries {
		if e.Owner != l.opts.ID {
			continue
		}
		if fanout.ValidateFilter(e.Cohort) != nil {
			continue
		}
		if c, ok := l.cohorts[e.Cohort]; ok {
			next[e.Cohort] = c // kept: epoch and counters continue
		} else {
			next[e.Cohort] = &cohortState{filter: e.Cohort}
		}
	}
	l.cohorts = next
	l.rebuildTrieLocked()
	l.assignVersion = a.Version
	l.assignsApplied.Add(1)
}

// Aggregators returns the configured aggregator addresses in order.
func (l *Leaf) Aggregators() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.aggs))
	for _, as := range l.aggs {
		out = append(out, as.addr)
	}
	return out
}

// AggReachable reports whether the aggregator at the given address is
// currently considered reachable (unknown addresses report false).
func (l *Leaf) AggReachable(addr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, as := range l.aggs {
		if as.addr == addr {
			return !as.unreachable
		}
	}
	return false
}

// Counters returns the leaf's counter snapshot.
func (l *Leaf) Counters() LeafCounters {
	l.mu.Lock()
	owned := len(l.cohorts)
	av := l.assignVersion
	reachable := 0
	for _, as := range l.aggs {
		if !as.unreachable {
			reachable++
		}
	}
	l.mu.Unlock()
	return LeafCounters{
		Rollups:        l.rollups.Load(),
		DigestsSent:    l.digestsSent.Load(),
		SendErrors:     l.sendErrors.Load(),
		AssignsApplied: l.assignsApplied.Load(),
		AssignsStale:   l.assignsStale.Load(),
		BadDatagrams:   l.badDatagrams.Load(),
		NotableOmitted: l.notableOmitted.Load(),
		AcksReceived:   l.acksReceived.Load(),
		AggUnreachable: l.aggUnreachable.Load(),
		AggsReachable:  reachable,
		CohortsOwned:   owned,
		AssignVersion:  av,
		StreamsRolled:  l.streamsRolled.Load(),
		StreamsForeign: l.streamsForeign.Load(),
		BusDropped:     l.sub.Dropped(),
		UrgentSent:     l.urgentSent.Load(),
		UrgentBytes:    l.urgentBytes.Load(),
		UrgentDeferred: l.urgentDeferred.Load(),
	}
}
