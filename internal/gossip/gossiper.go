package gossip

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/registry"
)

// Endpoint is the datagram surface the gossiper sends on. Both
// transport.Endpoint (live UDP / in-memory hub) and *netsim.Node
// (deterministic simulation) satisfy it; receiving is wired externally
// by feeding datagrams to HandleDatagram, so one socket can carry both
// heartbeat and gossip traffic (the magic bytes discriminate).
type Endpoint interface {
	Send(to string, payload []byte) error
	Addr() string
}

// Options tunes a Gossiper. Zero values take the documented defaults.
type Options struct {
	// ID identifies this monitor in digests (default: the endpoint
	// address).
	ID string
	// Interval is the anti-entropy round period (default 250 ms).
	Interval clock.Duration
	// Fanout is how many random peer monitors receive a digest each
	// round (default 2, capped at the peer count).
	Fanout int
	// Quorum is the minimum number of concurring monitors — self
	// included — required for a global verdict (default 2).
	Quorum int
	// MinMass is the weighted-sum threshold the concurring monitors must
	// also reach, each contributing its accuracy weight in
	// [WeightFloor, 1] (default 0.75 × Quorum). Monitors with a poor
	// recent mistake rate therefore need extra corroboration — the
	// Impact FD idea.
	MinMass float64
	// WeightFloor is the minimum weight a mistake-prone monitor retains,
	// so no monitor is ever fully ignored (default 0.25).
	WeightFloor float64
	// MistakeGain is the EWMA gain of the mistake-rate estimate behind
	// this monitor's self-reported weight (default 0.2).
	MistakeGain float64
	// OpinionTTL expires remote opinions whose reporting monitor has
	// gone quiet (default 30 s); a dead monitor cannot hold a suspicion
	// (or a refutation) forever.
	OpinionTTL clock.Duration
	// Seed drives peer selection (deterministic tests set it; 0 means 1).
	Seed int64
}

func (o *Options) normalize() {
	if o.Interval <= 0 {
		o.Interval = 250 * clock.Millisecond
	}
	if o.Fanout <= 0 {
		o.Fanout = 2
	}
	if o.Quorum <= 0 {
		o.Quorum = 2
	}
	if o.WeightFloor <= 0 || o.WeightFloor > 1 {
		o.WeightFloor = 0.25
	}
	if o.MinMass <= 0 {
		o.MinMass = 0.75 * float64(o.Quorum)
	}
	if o.MistakeGain <= 0 || o.MistakeGain > 1 {
		o.MistakeGain = 0.2
	}
	if o.OpinionTTL <= 0 {
		o.OpinionTTL = 30 * clock.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Counters is the gossiper's monotonic counter snapshot.
type Counters struct {
	DigestsSent     uint64 `json:"digests_sent"`
	SendErrors      uint64 `json:"send_errors"`
	DigestsReceived uint64 `json:"digests_received"`
	DigestsBad      uint64 `json:"digests_bad"`
	EntriesMerged   uint64 `json:"entries_merged"`
	GlobalSuspects  uint64 `json:"global_suspects"`
	GlobalOfflines  uint64 `json:"global_offlines"`
	GlobalTrusts    uint64 `json:"global_trusts"`
	RemoteOpinions  int    `json:"remote_opinions"` // gauge
	OpenVerdicts    int    `json:"open_verdicts"`   // gauge: non-trusted verdicts
}

// Gossiper is one monitor's membership in the dissemination fabric. It
// reads local opinions from a Registry, exchanges digests with peer
// monitors, and publishes corroborated Global* verdicts back onto the
// registry's failure-event bus. All methods are safe for concurrent use.
type Gossiper struct {
	id    string
	ep    Endpoint
	clk   clock.Clock
	reg   *registry.Registry
	peers []string
	opts  Options

	mu sync.Mutex
	// suspects is the locally non-trusted subject set, maintained from
	// the registry's bus events (suspect/offline add; trust/evict drop).
	suspects map[string]struct{}
	// remote holds the newest opinion per (subject, reporting monitor).
	remote map[string]map[string]remoteOpinion
	// weights is each peer monitor's last self-reported accuracy weight.
	weights map[string]float64
	// verdict is the last published global state per subject (absent =
	// trusted with nothing pending).
	verdict map[string]State
	// episodes tracks open local suspicion episodes for mistake-rate
	// accounting: subject → suspicion start.
	episodes map[string]struct{}
	// mistakeRate is the EWMA of suspicion-episode outcomes (1 =
	// mistake, i.e. the suspect recovered; 0 = confirmed offline).
	mistakeRate float64
	rng         *rand.Rand
	seq         uint64

	sub *registry.Subscription

	digestsSent     atomic.Uint64
	sendErrors      atomic.Uint64
	digestsReceived atomic.Uint64
	digestsBad      atomic.Uint64
	entriesMerged   atomic.Uint64
	globalSuspects  atomic.Uint64
	globalOfflines  atomic.Uint64
	globalTrusts    atomic.Uint64
	opinionsExpired atomic.Uint64

	started atomic.Bool
	stopped atomic.Bool
	loop    clock.Loop // the round loop
}

// New builds a Gossiper for the monitor owning reg, gossiping over ep
// with the given peer monitor addresses. A nil clock defaults to the
// real clock. Call Start to begin anti-entropy rounds and feed received
// datagrams to HandleDatagram.
func New(ep Endpoint, clk clock.Clock, reg *registry.Registry, peers []string, opts Options) *Gossiper {
	if clk == nil {
		clk = clock.NewReal()
	}
	opts.normalize()
	if opts.ID == "" {
		opts.ID = ep.Addr()
	}
	// Exclude ourselves from the peer list; gossiping to self is a no-op
	// that would waste fanout slots.
	ps := make([]string, 0, len(peers))
	for _, p := range peers {
		if p != opts.ID && p != ep.Addr() {
			ps = append(ps, p)
		}
	}
	g := &Gossiper{
		id:       opts.ID,
		ep:       ep,
		clk:      clk,
		reg:      reg,
		peers:    ps,
		opts:     opts,
		suspects: make(map[string]struct{}),
		remote:   make(map[string]map[string]remoteOpinion),
		weights:  make(map[string]float64),
		verdict:  make(map[string]State),
		episodes: make(map[string]struct{}),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		sub:      reg.Subscribe(4096),
	}
	// Persistence wiring: contribute this gossiper's tables to the
	// registry's snapshots, and absorb whatever the warm restart
	// recovered (a no-op when the registry restored nothing or
	// persistence is disabled).
	reg.SetAuxSnapshot(g.ExportState)
	g.ImportState(reg.ClaimRestoredGossip(), clk.Now())
	return g
}

// ID returns this monitor's gossip identity.
func (g *Gossiper) ID() string { return g.id }

// Peers returns the peer monitor addresses (self excluded).
func (g *Gossiper) Peers() []string { return append([]string(nil), g.peers...) }

// Options returns the effective configuration after defaulting.
func (g *Gossiper) Options() Options { return g.opts }

// Start launches the anti-entropy round loop. Idempotent.
func (g *Gossiper) Start() {
	if !g.started.CompareAndSwap(false, true) {
		return
	}
	// Second claim window: if this gossiper was built before the
	// registry restored (construction order varies by embedder), the
	// restored record is still waiting. Claim is one-shot and a nil
	// import is a no-op, so claiming in both places is safe.
	g.ImportState(g.reg.ClaimRestoredGossip(), g.clk.Now())
	g.loop.Every(g.clk, g.opts.Interval, g.Round)
}

// Stop halts the round loop, waiting out a round in flight, and detaches
// from the registry bus.
func (g *Gossiper) Stop() {
	if g.stopped.CompareAndSwap(false, true) {
		g.loop.Stop()
		g.sub.Close()
	}
}

// Round executes one anti-entropy round at instant now: absorb local
// registry events, expire stale remote opinions, recompute verdicts, and
// send digests to Fanout random peers. Start drives it automatically; it
// is exported so tests can step rounds by hand.
func (g *Gossiper) Round(now clock.Time) {
	g.mu.Lock()
	g.drainBusLocked()
	g.expireLocked(now)
	g.reverdictAllLocked(now)
	digests := g.buildDigestsLocked(now)
	targets := g.pickPeersLocked()
	g.mu.Unlock()

	for _, to := range targets {
		for _, d := range digests {
			if g.ep.Send(to, d) == nil {
				g.digestsSent.Add(1)
			} else {
				g.sendErrors.Add(1)
			}
		}
	}
}

// drainBusLocked absorbs this registry's transition events since the
// last round: they maintain the local suspicion set and the mistake-rate
// EWMA behind our self-reported weight.
func (g *Gossiper) drainBusLocked() {
	for {
		select {
		case ev, ok := <-g.sub.C():
			if !ok {
				return
			}
			switch ev.Type {
			case registry.EventSuspect:
				g.suspects[ev.Peer] = struct{}{}
				g.episodes[ev.Peer] = struct{}{}
			case registry.EventOffline:
				g.suspects[ev.Peer] = struct{}{}
				// A locally-confirmed offline counts as a non-mistake
				// outcome; a later recovery of the same subject will
				// still land a mistake sample below.
				g.mistakeRate = (1 - g.opts.MistakeGain) * g.mistakeRate
			case registry.EventTrust:
				delete(g.suspects, ev.Peer)
				if _, open := g.episodes[ev.Peer]; open {
					delete(g.episodes, ev.Peer)
					// The suspect recovered: the suspicion was a mistake.
					g.mistakeRate = (1-g.opts.MistakeGain)*g.mistakeRate + g.opts.MistakeGain
				}
			case registry.EventEvicted:
				delete(g.suspects, ev.Peer)
				delete(g.episodes, ev.Peer)
			}
		default:
			return
		}
	}
}

// expireLocked drops remote opinions older than OpinionTTL.
func (g *Gossiper) expireLocked(now clock.Time) {
	for subj, byMon := range g.remote {
		for mon, op := range byMon {
			if now.Sub(op.at) > g.opts.OpinionTTL {
				delete(byMon, mon)
				g.opinionsExpired.Add(1)
			}
		}
		if len(byMon) == 0 {
			delete(g.remote, subj)
		}
	}
}

// Weight returns this monitor's current self-assessed accuracy weight.
func (g *Gossiper) Weight() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.weightLocked()
}

func (g *Gossiper) weightLocked() float64 {
	return clampWeight(1-g.mistakeRate, g.opts.WeightFloor)
}

// MistakeRate returns the EWMA of local suspicion-episode outcomes.
func (g *Gossiper) MistakeRate() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.mistakeRate
}

// localOpinion derives this monitor's current opinion of subj from the
// registry (authoritative at call time); ok is false when the subject is
// not locally covered.
func (g *Gossiper) localOpinion(subj string, now clock.Time) (Opinion, bool) {
	status, ok := g.reg.StatusOf(subj, now)
	if !ok {
		return Opinion{}, false
	}
	inc, _ := g.reg.IncarnationOf(subj)
	op := Opinion{Subject: subj, Inc: inc}
	switch status {
	case registry.StatusOffline:
		op.State = StateOffline
	case registry.StatusSuspected:
		op.State = StateSuspect
	default:
		// Unknown (registered, never heard) gossips as trusted: we have
		// no evidence against the subject.
		op.State = StateTrusted
	}
	return op, true
}

// interestLocked returns every subject with a live local or remote
// suspicion — the set verdicts and digests are computed over.
func (g *Gossiper) interestLocked() map[string]struct{} {
	out := make(map[string]struct{}, len(g.suspects)+len(g.remote))
	for s := range g.suspects {
		out[s] = struct{}{}
	}
	for s, byMon := range g.remote {
		for _, op := range byMon {
			if op.State != StateTrusted {
				out[s] = struct{}{}
				break
			}
		}
	}
	// Subjects with an open verdict stay interesting until recanted.
	for s := range g.verdict {
		out[s] = struct{}{}
	}
	return out
}

// buildDigestsLocked encodes this monitor's opinions over the interest
// set, chunked to the wire bounds (entry count and datagram bytes).
// Trusted opinions ARE included for subjects others suspect: an explicit
// refutation (with incarnation) is what lets a recovered process return
// to trusted fleet-wide.
func (g *Gossiper) buildDigestsLocked(now clock.Time) [][]byte {
	interest := g.interestLocked()
	if len(interest) == 0 {
		return nil
	}
	subjects := make([]string, 0, len(interest))
	for s := range interest {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects) // deterministic digests for reproducible sims

	entries := make([]Opinion, 0, len(subjects))
	for _, s := range subjects {
		op, ok := g.localOpinion(s, now)
		if !ok {
			continue // not locally covered: nothing to report
		}
		if op.State != StateTrusted {
			op.Level = g.levelOf(s, now)
		}
		entries = append(entries, op)
	}
	if len(entries) == 0 {
		return nil
	}
	d := Digest{Monitor: g.id, Weight: g.weightLocked(), Entries: entries}
	return d.pack(func() uint64 { g.seq++; return g.seq }).Chunks()
}

// levelOf reads the subject's live accrual suspicion level; 0 when
// unavailable. Levels ride in digests as evidence only — the quorum
// rule counts monitors, not levels.
func (g *Gossiper) levelOf(subj string, now clock.Time) float64 {
	lvl, _ := g.reg.SuspicionOf(subj, now)
	return lvl
}

// pickPeersLocked selects Fanout distinct random peers.
func (g *Gossiper) pickPeersLocked() []string {
	if len(g.peers) == 0 {
		return nil
	}
	n := g.opts.Fanout
	if n >= len(g.peers) {
		return append([]string(nil), g.peers...)
	}
	idx := g.rng.Perm(len(g.peers))[:n]
	out := make([]string, 0, n)
	for _, i := range idx {
		out = append(out, g.peers[i])
	}
	return out
}

// HandleDatagram ingests one received gossip datagram. Non-gossip
// payloads (wrong magic) are ignored silently so the gossiper can share
// a socket with the heartbeat stack; malformed gossip is counted.
func (g *Gossiper) HandleDatagram(payload []byte) {
	if len(payload) < 2 || payload[0] != digestMagic[0] || payload[1] != digestMagic[1] {
		return // foreign datagram (heartbeat, ping, ...): not ours
	}
	d, err := UnmarshalDigest(payload)
	if err != nil {
		g.digestsBad.Add(1)
		return
	}
	if d.Monitor == g.id {
		return // our own digest reflected back
	}
	g.digestsReceived.Add(1)
	now := g.clk.Now()

	g.mu.Lock()
	g.weights[d.Monitor] = clampWeight(d.Weight, g.opts.WeightFloor)
	touched := make([]string, 0, len(d.Entries))
	for _, e := range d.Entries {
		byMon := g.remote[e.Subject]
		if byMon == nil {
			byMon = make(map[string]remoteOpinion)
			g.remote[e.Subject] = byMon
		}
		if prev, ok := byMon[d.Monitor]; ok && prev.seq >= d.Seq {
			continue // an older (reordered) digest cannot retract a newer one
		}
		byMon[d.Monitor] = remoteOpinion{Opinion: e, seq: d.Seq, at: now}
		g.entriesMerged.Add(1)
		touched = append(touched, e.Subject)
	}
	for _, s := range touched {
		g.reverdictLocked(s, now)
	}
	g.mu.Unlock()
}

// reverdictAllLocked recomputes every interesting subject's verdict, in
// sorted order so verdict events fire deterministically under clock.Sim.
func (g *Gossiper) reverdictAllLocked(now clock.Time) {
	interest := g.interestLocked()
	subjects := make([]string, 0, len(interest))
	for s := range interest {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)
	for _, s := range subjects {
		g.reverdictLocked(s, now)
	}
}

// reverdictLocked applies the quorum rule to one subject and publishes a
// Global* event on the registry bus when the verdict changes.
//
// The rule: let inc* be the highest incarnation any live opinion (local
// or remote) refers to. Opinions about older incarnations are refuted —
// a restarted process's new life cannot inherit its old life's
// suspicion. Over the remaining opinions, the subject is globally
// offline when at least Quorum monitors say offline AND their accuracy
// weights sum to at least MinMass; globally suspect likewise for
// states ≥ suspect; otherwise trusted.
func (g *Gossiper) reverdictLocked(subj string, now clock.Time) {
	local, hasLocal := g.localOpinion(subj, now)

	// Highest incarnation in view.
	incStar := uint64(0)
	if hasLocal {
		incStar = local.Inc
	}
	for _, op := range g.remote[subj] {
		if op.Inc > incStar {
			incStar = op.Inc
		}
	}

	var suspCount, offCount int
	var suspMass, offMass float64
	consider := func(st State, w float64, inc uint64) {
		if inc != incStar || st == StateTrusted {
			return
		}
		suspCount++
		suspMass += w
		if st == StateOffline {
			offCount++
			offMass += w
		}
	}
	if hasLocal {
		consider(local.State, g.weightLocked(), local.Inc)
	}
	// Sorted monitor order keeps the floating-point mass sum — and so
	// the verdict — bit-identical across runs (clock.Sim determinism).
	mons := make([]string, 0, len(g.remote[subj]))
	for mon := range g.remote[subj] {
		mons = append(mons, mon)
	}
	sort.Strings(mons)
	for _, mon := range mons {
		op := g.remote[subj][mon]
		w, ok := g.weights[mon]
		if !ok {
			w = g.opts.WeightFloor
		}
		consider(op.State, w, op.Inc)
	}

	next := StateTrusted
	switch {
	case offCount >= g.opts.Quorum && offMass >= g.opts.MinMass:
		next = StateOffline
	case suspCount >= g.opts.Quorum && suspMass >= g.opts.MinMass:
		next = StateSuspect
	}

	prev := g.verdict[subj] // zero value = trusted
	if next == prev {
		if next == StateTrusted {
			delete(g.verdict, subj) // nothing pending: bound the table
		}
		return
	}
	if next == StateTrusted {
		delete(g.verdict, subj)
	} else {
		g.verdict[subj] = next
	}

	ev := registry.Event{
		Peer:        subj,
		At:          now,
		Incarnation: incStar,
		Source:      g.id,
		Suspicion:   suspMass,
		Detail: fmt.Sprintf("quorum %d/%d monitors, mass %.2f/%.2f (offline %d, mass %.2f)",
			suspCount, g.opts.Quorum, suspMass, g.opts.MinMass, offCount, offMass),
	}
	switch next {
	case StateOffline:
		ev.Type = registry.EventGlobalOffline
		g.globalOfflines.Add(1)
	case StateSuspect:
		ev.Type = registry.EventGlobalSuspect
		g.globalSuspects.Add(1)
	case StateTrusted:
		ev.Type = registry.EventGlobalTrust
		ev.Suspicion = 0
		g.globalTrusts.Add(1)
	}
	g.reg.Bus().Publish(ev)
}

// VerdictOf returns the current global verdict for a subject (trusted
// when no quorum holds).
func (g *Gossiper) VerdictOf(subj string) State {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.verdict[subj]
}

// Verdicts returns every non-trusted global verdict, sorted by subject.
func (g *Gossiper) Verdicts() []Opinion {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Opinion, 0, len(g.verdict))
	for s, st := range g.verdict {
		out = append(out, Opinion{Subject: s, State: st})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Subject < out[j].Subject })
	return out
}

// Counters returns the gossiper's counter snapshot.
func (g *Gossiper) Counters() Counters {
	g.mu.Lock()
	nRemote := 0
	for _, byMon := range g.remote {
		nRemote += len(byMon)
	}
	nVerdicts := len(g.verdict)
	g.mu.Unlock()
	return Counters{
		DigestsSent:     g.digestsSent.Load(),
		SendErrors:      g.sendErrors.Load(),
		DigestsReceived: g.digestsReceived.Load(),
		DigestsBad:      g.digestsBad.Load(),
		EntriesMerged:   g.entriesMerged.Load(),
		GlobalSuspects:  g.globalSuspects.Load(),
		GlobalOfflines:  g.globalOfflines.Load(),
		GlobalTrusts:    g.globalTrusts.Load(),
		RemoteOpinions:  nRemote,
		OpenVerdicts:    nVerdicts,
	}
}
