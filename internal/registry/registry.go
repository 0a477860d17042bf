// Package registry scales the paper's "one monitors multiple"
// deployment (Fig. 1, §VII) to fleet size: a sharded monitoring
// registry holding one failure detector per heartbeat stream, a
// hierarchical timer wheel that fires suspect/offline/eviction
// transitions for the whole fleet from a single driver, and a
// failure-event bus pushing typed transitions to subscribers over
// bounded channels with drop-oldest backpressure.
//
// The Registry is the repository's one monitoring engine: everything
// that turns heartbeat arrivals into statuses — the live daemon, the
// gossip and federation tiers, the §VII consortium simulation, the
// consensus layer — holds one. It also owns the status model of the
// paper's introduction (active / busy / suspected / offline, see
// Status) and the status board that renders it, and it runs unchanged
// over the real clock (UDP stack) or clock.Sim (netsim), keeping
// fleet-scale scenarios deterministic.
package registry

import (
	"hash/maphash"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/fanout"
	"repro/internal/heartbeat"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/stats"
)

// Factory builds a fresh detector for a newly registered stream.
type Factory func(peer string) detector.Detector

// Options tunes a Registry. Zero values take the documented defaults;
// negative durations disable the corresponding mechanism where noted.
type Options struct {
	// Shards is the number of lock stripes, rounded up to a power of two
	// (default 16).
	Shards int
	// WheelTick is the timer-wheel granularity and the period of the
	// driver's coarse wakes (default 10 ms). A transition fires within
	// 1 ms (or one tick, if shorter) after its deadline, and never before
	// it; a deadline moved earlier into the tick the wheel has already
	// looked ahead over fires within one tick.
	WheelTick clock.Duration
	// BusyLevel and SuspectLevel are the accrual suspicion levels (for
	// detectors implementing detector.Accrual; binary detectors map
	// trust→0 and suspect→SuspectLevel) at which snapshot queries report
	// a stream busy and suspected (defaults 0.5 — half the safety margin
	// consumed — and 1.0 — the freshness point on the SFD accrual scale).
	BusyLevel    float64
	SuspectLevel float64
	// OfflineAfter is how long a stream stays suspected before it is
	// declared offline (default 10 s).
	OfflineAfter clock.Duration
	// MaxSilence is the safety net under the detector: a stream whose
	// last heartbeat is older than this is suspected even if its detector
	// never formed a freshness point. Default 30 s; negative disables.
	// With it disabled, a stream that heartbeats once and goes silent
	// before its detector warms up is never suspected nor evicted.
	MaxSilence clock.Duration
	// EvictAfter is how long an offline stream is kept before it is
	// removed from the registry — the bound that keeps the table finite
	// under peer churn. Default 1 minute; negative disables eviction.
	EvictAfter clock.Duration
	// MetricsMaxStreams caps how many streams the /metrics page exposes
	// per-stream QoS gauges for — a huge fleet would otherwise make every
	// scrape enumerate every stream. Default 256; negative disables the
	// per-stream sampler entirely (aggregate series remain).
	MetricsMaxStreams int
	// WatchMaxConns caps concurrent /watch connections; each holds a bus
	// subscription, so an unbounded count would let one misbehaving
	// aggregator exhaust the event bus. Saturated requests get 503 with a
	// Retry-After header. Default 64; negative disables the cap.
	WatchMaxConns int

	// StateDir enables crash-safe persistence: full snapshots and the
	// delta journal live here, and Start restores from them (warm
	// restart). Empty disables persistence entirely.
	StateDir string
	// CheckpointInterval is the cadence of full state snapshots
	// (default 30 s).
	CheckpointInterval clock.Duration
	// JournalFlush is the cadence of incremental delta-journal flushes
	// (default 1 s).
	JournalFlush clock.Duration
	// JournalMaxBytes rotates the delta journal into a fresh full
	// snapshot once it grows past this size (default 1 MiB).
	JournalMaxBytes int64
	// RewarmArrivals is how many fresh arrivals a restored detector's
	// safety margin stays frozen for after a warm restart (0 → one
	// slot's worth, the detector default).
	RewarmArrivals int
	// RewarmGrace is the deadline granted to restored trusted streams:
	// a stream that does not heartbeat within this window after restart
	// is suspected through the normal machinery. Default: MaxSilence,
	// or OfflineAfter when the silence net is disabled.
	RewarmGrace clock.Duration
}

func (o *Options) normalize() {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < o.Shards {
		n <<= 1
	}
	o.Shards = n
	if o.WheelTick <= 0 {
		o.WheelTick = 10 * clock.Millisecond
	}
	if o.BusyLevel <= 0 {
		o.BusyLevel = 0.5
	}
	if o.SuspectLevel <= o.BusyLevel {
		o.SuspectLevel = o.BusyLevel + 0.5
	}
	if o.OfflineAfter <= 0 {
		o.OfflineAfter = 10 * clock.Second
	}
	switch {
	case o.MaxSilence == 0:
		o.MaxSilence = 30 * clock.Second
	case o.MaxSilence < 0:
		o.MaxSilence = 0
	}
	switch {
	case o.EvictAfter == 0:
		o.EvictAfter = 60 * clock.Second
	case o.EvictAfter < 0:
		o.EvictAfter = 0
	}
	switch {
	case o.MetricsMaxStreams == 0:
		o.MetricsMaxStreams = 256
	case o.MetricsMaxStreams < 0:
		o.MetricsMaxStreams = 0
	}
	switch {
	case o.WatchMaxConns == 0:
		o.WatchMaxConns = 64
	case o.WatchMaxConns < 0:
		o.WatchMaxConns = 0
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 30 * clock.Second
	}
	if o.JournalFlush <= 0 {
		o.JournalFlush = clock.Second
	}
	if o.JournalMaxBytes <= 0 {
		o.JournalMaxBytes = 1 << 20
	}
	if o.RewarmGrace <= 0 {
		if o.MaxSilence > 0 {
			o.RewarmGrace = o.MaxSilence
		} else {
			o.RewarmGrace = o.OfflineAfter
		}
	}
}

// Counters is a point-in-time view of the registry's monotonic counters
// (the expvar-style numbers the HTTP endpoint exposes).
type Counters struct {
	Heartbeats    uint64 `json:"heartbeats"`      // accepted arrivals
	Stale         uint64 `json:"stale"`           // duplicate/reordered arrivals dropped
	Registered    uint64 `json:"registered"`      // streams ever registered
	InvalidNames  uint64 `json:"invalid_names"`   // registrations rejected by name validation
	Suspects      uint64 `json:"suspects"`        // trust → suspect transitions
	Trusts        uint64 `json:"trusts"`          // suspect → trust transitions
	Offlines      uint64 `json:"offlines"`        // suspect → offline transitions
	Evictions     uint64 `json:"evictions"`       // offline streams removed
	CannotSatisfy uint64 `json:"cannot_satisfy"`  // self-tuner infeasibility reports
	BusPublished  uint64 `json:"bus_published"`   // events published on the bus
	BusDropped    uint64 `json:"bus_dropped"`     // events dropped across subscribers
	FanoutMatches uint64 `json:"fanout_matches"`  // deliveries routed by the topic trie
	FanoutDrops   uint64 `json:"fanout_drops"`    // drops charged to topic subscriptions
	WatchRejected uint64 `json:"watch_rejected"`  // /watch requests refused at WatchMaxConns
	WatchConns    int    `json:"watch_conns"`     // live /watch connections
	Streams       int    `json:"streams"`         // currently registered streams
	WheelEntries  int    `json:"wheel_entries"`   // live wheel entries (incl. stale)
	CoarseWakes   uint64 `json:"coarse_wakes"`    // driver wakes on a WheelTick boundary
	FineWakes     uint64 `json:"fine_wakes"`      // driver wakes for a looked-ahead deadline
	Subscribers   int    `json:"bus_subscribers"` // current subscribers (firehose + topic)
	TopicSubs     int    `json:"topic_subscriptions"`
	TrieNodes     int    `json:"fanout_trie_nodes"`
}

// stater is implemented by self-tuning detectors (core.SFD) whose
// infeasibility verdict the registry surfaces as EventCannotSatisfy.
type stater interface {
	State() core.State
	Response() string
}

// Registry is the sharded fleet monitor. All methods are safe for
// concurrent use.
type Registry struct {
	clk     clock.Clock
	factory Factory
	opts    Options

	shards    []*shard
	shardMask uint64
	seed      maphash.Seed // keys shardFor, so no outsider can pick a stream's stripe
	wheel     *timerWheel
	bus       *Bus

	// gen issues globally unique wheel-entry generations (see stream.gen).
	gen atomic.Uint64

	stale         atomic.Uint64
	registered    atomic.Uint64
	invalidNames  atomic.Uint64
	suspects      atomic.Uint64
	trusts        atomic.Uint64
	offlines      atomic.Uint64
	evictions     atomic.Uint64
	cannotSatisfy atomic.Uint64
	rearms        atomic.Uint64

	// metricsSet is built lazily on the first Metrics() call so embedders
	// that never scrape pay nothing for it.
	metricsOnce sync.Once
	metricsSet  *metrics.Set

	// Ground-truth failure marks (see groundtruth.go). markCount gates the
	// hot-path checks so a registry with no marks pays one atomic load.
	marksMu    sync.Mutex
	marks      map[string]clock.Time
	markCount  atomic.Int64
	detLat     *stats.Histogram                  // quantile summary, under marksMu
	detLatHist atomic.Pointer[metrics.Histogram] // /metrics exposition

	// varsAux holds /vars sections registered by other subsystems via
	// RegisterVars (transport, gossip, federation).
	varsMu  sync.Mutex
	varsAux map[string]func() any

	// watchConns counts live /watch connections against WatchMaxConns.
	watchConns    atomic.Int64
	watchRejected atomic.Uint64

	started atomic.Bool
	stopped atomic.Bool
	loop    clock.Loop // the wheel driver

	// Owned by whoever drives Tick (never two at once): the wheel's due
	// entries, the fine heap of looked-ahead deadlines, the wheel's
	// reached instant as of the last Tick, and the driver's planned wake.
	tickBuf       []expiry
	fine          fineHeap
	reached       clock.Time
	planned       clock.Time
	plannedCoarse bool

	coarseWakes atomic.Uint64
	fineWakes   atomic.Uint64
	lateness    atomic.Pointer[metrics.Histogram] // set once Metrics() has built it

	// tickHooks is OnTick's copy-on-write hook list (nil when empty, so a
	// registry without hooks pays one atomic load per Tick); hooksMu
	// serializes its writers.
	hooksMu   sync.Mutex
	tickHooks atomic.Pointer[[]*tickHook]

	// Persistence plumbing (zero when Options.StateDir is unset). The
	// checkpointer rides in an atomic pointer so scrape-time metrics can
	// read it regardless of Start ordering; restoreMu guards the
	// restore-once state and the store handle.
	ckpt           atomic.Pointer[persist.Checkpointer]
	auxSnap        atomic.Value // auxSnapFunc
	restoreMu      sync.Mutex
	store          *persist.Store
	deltaSub       *Subscription
	restored       bool
	restoredCount  int
	restoreErr     error
	restoredGossip *persist.GossipRecord
}

// New builds a Registry. A nil clock defaults to the real clock; a nil
// factory defaults to SFD instances with default targets.
func New(clk clock.Clock, factory Factory, opts Options) *Registry {
	if clk == nil {
		clk = clock.NewReal()
	}
	if factory == nil {
		factory = func(string) detector.Detector { return core.New(core.DefaultConfig()) }
	}
	opts.normalize()
	r := &Registry{
		clk:       clk,
		factory:   factory,
		opts:      opts,
		shards:    make([]*shard, opts.Shards),
		shardMask: uint64(opts.Shards - 1),
		seed:      maphash.MakeSeed(),
		wheel:     newTimerWheel(opts.WheelTick, clk.Now()),
		bus:       NewBus(),
	}
	for i := range r.shards {
		r.shards[i] = newShard()
	}
	return r
}

// Options returns the effective configuration after defaulting.
func (r *Registry) Options() Options { return r.opts }

// Start launches the timer-wheel driver, a clock.Loop (under clock.Sim,
// inside Advance) that wakes on every WheelTick boundary of the wheel and
// within one fine grid step after each looked-ahead deadline, and calls
// Tick. Start is idempotent.
func (r *Registry) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	r.startPersist()
	now := r.clk.Now()
	r.planned, r.plannedCoarse = r.wheel.boundaryAfter(now), true
	r.loop.Run(r.clk, r.planned.Sub(now), r.wake)
}

// wake is one driver wake: it counts the wake and its lateness, ticks,
// and returns the delay to the nearer of the next WheelTick boundary and
// the fine heap's earliest wake. Only Tick pushes onto the heap, so the
// delay returned here always covers it: the driver never has to cut a
// sleep short, and makes one clock.After per wake on a clock without
// callbacks.
//
// A coarse wake stays on the wheel's boundary grid, so ticks do not drift.
// A fine wake sleeps whole fineGrid steps from the end of the Tick (see
// fineGrid for why whole steps), to the first at or after the heap's
// earliest deadline; one that fell due while the Tick ran wakes the
// driver at once.
func (r *Registry) wake(now clock.Time) clock.Duration {
	if r.plannedCoarse {
		r.coarseWakes.Add(1)
	} else {
		r.fineWakes.Add(1)
	}
	if h := r.lateness.Load(); h != nil {
		h.Observe(max(now.Sub(r.planned), 0).Seconds())
	}
	r.Tick(now)
	end := r.clk.Now()
	d, coarse := r.reached.Sub(end), true
	if len(r.fine) > 0 {
		g := min(fineGrid, r.opts.WheelTick)
		if f := (max(r.fine[0].at.Sub(end), 0) + g - 1) / g * g; f < d {
			d, coarse = f, false
		}
	}
	// Late (the Tick outran the plan) or a deadline already due: wake
	// again at once.
	d = max(d, clock.Nanosecond)
	r.planned, r.plannedCoarse = end.Add(d), coarse
	return d
}

// Stop halts the wheel driver, waiting out a Tick it has in flight, and,
// when persistence is enabled, flushes a final full snapshot (the
// graceful-shutdown guarantee: a clean exit restores exactly). Streams
// and subscriptions survive; Tick can still be called manually. Stop must
// not be called from an OnTick hook.
func (r *Registry) Stop() {
	if r.stopped.CompareAndSwap(false, true) {
		r.loop.Stop()
		r.stopPersist()
	}
}

// Tick fires every transition due by instant now. It advances the wheel
// one tick past now and resolves each entry that comes out: a stream
// whose deadline a heartbeat moved past that lookahead is re-armed on the
// wheel, one already due transitions, and one due inside the lookahead
// goes on the fine heap, which the driver wakes for. Then it pops and
// resolves every heap entry due by now. Start calls Tick automatically;
// it is exported so tests and embedders can drive the wheel by hand. It
// must not be called concurrently with itself (the Start driver never
// does).
func (r *Registry) Tick(now clock.Time) {
	r.tickBuf = r.wheel.advance(now.Add(r.opts.WheelTick), r.tickBuf[:0])
	r.reached = r.wheel.reached()
	for _, x := range r.tickBuf {
		r.expire(now, x)
	}
	// The buffer keeps its capacity: clear the names so the largest burst
	// ever fired does not keep evicted streams' names reachable.
	clear(r.tickBuf)
	for len(r.fine) > 0 && !r.fine[0].at.After(now) {
		e := r.fine.pop()
		r.expire(now, expiry{peer: e.peer, gen: e.gen})
	}
	if hooks := r.tickHooks.Load(); hooks != nil {
		for _, h := range *hooks {
			h.fn(now)
		}
	}
}

// tickHook is one OnTick callback; a pointer, so removal finds it by
// identity.
type tickHook struct{ fn func(clock.Time) }

// OnTick installs fn to run at the end of every Tick, after every
// transition that tick fired has been published, on whichever goroutine
// drives Tick: the wheel driver, a clock.Sim callback, or a caller
// stepping Tick by hand. fn must return quickly and must not call Tick.
// The returned func removes the hook; calling it again is a no-op.
func (r *Registry) OnTick(fn func(now clock.Time)) (remove func()) {
	h := &tickHook{fn: fn}
	r.setHooks(func(cur []*tickHook) []*tickHook { return append(cur[:len(cur):len(cur)], h) })
	return func() {
		r.setHooks(func(cur []*tickHook) []*tickHook {
			next := make([]*tickHook, 0, len(cur))
			for _, x := range cur {
				if x != h {
					next = append(next, x)
				}
			}
			return next
		})
	}
}

// setHooks publishes edit's copy of the hook list.
func (r *Registry) setHooks(edit func(cur []*tickHook) []*tickHook) {
	r.hooksMu.Lock()
	defer r.hooksMu.Unlock()
	var cur []*tickHook
	if p := r.tickHooks.Load(); p != nil {
		cur = *p
	}
	if next := edit(cur); len(next) > 0 {
		r.tickHooks.Store(&next)
	} else {
		r.tickHooks.Store(nil)
	}
}

func (r *Registry) shardFor(peer string) *shard {
	return r.shards[maphash.String(r.seed, peer)&r.shardMask]
}

// Register adds a stream without waiting for its first heartbeat
// (idempotent). The silence safety net starts immediately, so a
// registered peer that never speaks is still suspected and evicted.
//
// Stream names are hierarchical topics (`region/cluster/host/service`):
// names with empty segments (`a//b`) or wildcard characters (`+`, `#`)
// are rejected here, at the boundary, so every tracked stream is
// unambiguously addressable by SubscribeTopic filters.
func (r *Registry) Register(peer string) error {
	if err := fanout.ValidateName(peer); err != nil {
		r.invalidNames.Add(1)
		return err
	}
	sh := r.shardFor(peer)
	sh.mu.Lock()
	if _, ok := sh.streams[peer]; !ok {
		st := r.newStreamLocked(sh, peer, false)
		if r.opts.MaxSilence > 0 {
			r.rearmLocked(st, r.clk.Now().Add(r.opts.MaxSilence))
		}
	}
	sh.mu.Unlock()
	return nil
}

// newStreamLocked creates and files a stream; the shard lock must be held.
// An aliased peer (a receiver's Arrival.Name, over a buffer it reuses) is
// copied first. The copy is made here, not in Observe, to keep it off
// Observe's hot path.
func (r *Registry) newStreamLocked(sh *shard, peer string, aliased bool) *stream {
	if aliased {
		peer = strings.Clone(peer)
	}
	st := &stream{peer: peer, det: r.factory(peer)}
	sh.streams[peer] = st
	r.registered.Add(1)
	return st
}

// Deregister removes a stream, reporting whether it existed. Stale wheel
// entries for it are invalidated lazily.
func (r *Registry) Deregister(peer string) bool {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	_, ok := sh.streams[peer]
	delete(sh.streams, peer)
	sh.mu.Unlock()
	return ok
}

// Len returns the number of registered streams.
func (r *Registry) Len() int {
	n, _ := r.tally()
	return n
}

// tally sums the shards in one locked pass: registered streams and
// accepted heartbeats.
func (r *Registry) tally() (streams int, heartbeats uint64) {
	for _, sh := range r.shards {
		sh.mu.Lock()
		streams += len(sh.streams)
		heartbeats += sh.heartbeats
		sh.mu.Unlock()
	}
	return streams, heartbeats
}

// Subscribe attaches a firehose failure-event subscriber (every event)
// with the given channel capacity (buf <= 0 takes the default).
func (r *Registry) Subscribe(buf int) *Subscription {
	return r.bus.Subscribe(buf)
}

// SubscribeTopic attaches an interest-routed subscriber: it receives
// only events whose stream name matches filter (`+`/`#` wildcards over
// `/`-separated hierarchical names). A client watching 50 streams in a
// million-stream fleet pays for exactly those 50 streams' events.
func (r *Registry) SubscribeTopic(filter string, buf int) (*Subscription, error) {
	return r.bus.SubscribeTopic(filter, buf)
}

// Bus returns the underlying event bus.
func (r *Registry) Bus() *Bus { return r.bus }

// Observe ingests one heartbeat arrival. It matches heartbeat.Handler,
// so a Registry wires directly into a Receiver:
//
//	recv := heartbeat.NewReceiver(ep, clk, reg.Observe)
//
// The arrival's stream is its Name when set (a wire-v3 heartbeat), its
// From otherwise. Observe is the only stale filter on the ingest path: a
// beat not above the stream's (incarnation, seq) is counted stale and
// dropped. Arrivals from unknown streams auto-register them (a server
// joining the cloud announces itself by heartbeating). The hot path
// takes one shard lock and normally never touches the wheel: a
// heartbeat only moves the stream's authoritative deadline, and the
// wheel entry re-arms itself when it fires.
func (r *Registry) Observe(a heartbeat.Arrival) {
	key := a.From
	if a.Name != "" {
		key = a.Name
	}
	sh := r.shardFor(key)
	// A transition is noted in these flags and its event built after the
	// lock is released. An [2]Event buffer here would be zeroed on every
	// beat, and a beat rarely carries an event.
	var trusted, infeasible bool
	var response string

	sh.mu.Lock()
	st, ok := sh.streams[key]
	if !ok {
		// First sight of this name: validate it before it becomes a
		// topic. Known streams skip this, so the hot path pays nothing.
		if err := fanout.ValidateName(key); err != nil {
			sh.mu.Unlock()
			r.invalidNames.Add(1)
			return
		}
		st = r.newStreamLocked(sh, key, a.Name != "")
	}
	if st.seen && (a.Inc < st.inc || (a.Inc == st.inc && a.Seq <= st.lastSeq)) {
		st.touchCold().stale++
		sh.mu.Unlock()
		r.stale.Add(1)
		return
	}
	if st.seen && a.Inc > st.inc {
		// A restarted process: its arrival statistics share nothing with
		// the dead incarnation, so start the detector over.
		st.det = r.factory(st.peer)
	}
	st.inc = a.Inc

	if st.phase != phaseTrusted {
		// Recovery: the suspicion (or offline verdict) was a mistake.
		c := st.touchCold()
		c.mistakes++
		if a.Recv.After(st.suspectSince) {
			c.mistakeTime += a.Recv.Sub(st.suspectSince)
		}
		st.phase = phaseTrusted
		trusted = true
	}

	st.det.Observe(a.Seq, a.Send, a.Recv)
	st.lastSeq, st.lastArrival, st.seen = a.Seq, a.Recv, true
	st.heartbeats++
	sh.heartbeats++

	// Surface the self-tuner's "can not satisfy" response as an event,
	// once per infeasibility episode.
	if sd, ok := st.det.(stater); ok {
		if sd.State() == core.StateInfeasible {
			if !st.infeasible {
				st.infeasible = true
				infeasible, response = true, sd.Response()
			}
		} else {
			st.infeasible = false
		}
	}

	// New authoritative deadline: the freshness point, tightened by the
	// silence safety net when that comes first (or when no freshness
	// point exists yet).
	dl := st.det.FreshnessPoint()
	if r.opts.MaxSilence > 0 {
		if sil := a.Recv.Add(r.opts.MaxSilence); dl == 0 || sil.Before(dl) {
			dl = sil
		}
	}
	st.deadline = dl
	if dl > 0 && (st.entryAt == 0 || dl.Before(st.entryAt)) {
		r.rearmLocked(st, dl)
	}
	sh.mu.Unlock()

	if r.markCount.Load() > 0 {
		r.clearMark(st.peer, a.Recv)
	}
	if trusted {
		r.publish(Event{Type: EventTrust, Peer: st.peer, At: a.Recv, Incarnation: a.Inc})
	}
	if infeasible {
		r.publish(Event{Type: EventCannotSatisfy, Peer: st.peer, At: a.Recv}.WithNote("", response))
	}
}

// rearmLocked schedules a fresh wheel entry for st at instant at,
// invalidating any previous entry. The stream's shard lock must be held.
// The generation comes from the registry-wide counter so entries left
// behind by a deregistered stream can never match a later stream that
// reuses the same address.
func (r *Registry) rearmLocked(st *stream, at clock.Time) {
	r.rearms.Add(1)
	st.gen = r.gen.Add(1)
	st.entryAt = at
	st.deadline = at
	r.wheel.schedule(at, st.peer, st.gen)
}

// armLocked is the driver's re-arm, for a stream whose only live entry
// it has just taken off the wheel or the heap. A deadline inside the
// looked-ahead tick goes on the fine heap under the stream's current
// generation; any other goes back on the wheel (one already due lands on
// the next tick, so one Tick never cascades a stream through two
// transitions). The stream's shard lock must be held.
func (r *Registry) armLocked(now clock.Time, st *stream, at clock.Time) {
	if at.After(now) && !at.After(r.reached) {
		st.entryAt, st.deadline = at, at
		r.fine.push(fineEntry{at: at, gen: st.gen, peer: st.peer})
		return
	}
	r.rearmLocked(st, at)
}

// expire resolves one wheel or heap entry against the stream's current
// state: re-arm if its deadline is still ahead (a heartbeat moved it, or
// it falls inside the looked-ahead tick), otherwise advance the
// trusted → suspected → offline → evicted machine one step.
func (r *Registry) expire(now clock.Time, x expiry) {
	sh := r.shardFor(x.peer)
	sh.mu.Lock()
	st := sh.streams[x.peer]
	if st == nil || st.gen != x.gen {
		sh.mu.Unlock()
		return // deregistered, evicted, or a lazily-invalidated entry
	}
	st.entryAt = 0
	if st.deadline.After(now) {
		r.armLocked(now, st, st.deadline)
		sh.mu.Unlock()
		return
	}

	var ev Event
	switch st.phase {
	case phaseTrusted:
		st.phase = phaseSuspected
		// The suspicion episode began when the freshness point expired,
		// not when the wheel got around to firing it.
		st.suspectSince = now
		if fp := st.det.FreshnessPoint(); fp > 0 && fp.Before(now) {
			st.suspectSince = fp
		}
		ev = Event{Type: EventSuspect, Peer: st.peer, At: now, Suspicion: r.level(st, now), Incarnation: st.inc}
		r.armLocked(now, st, st.suspectSince.Add(r.opts.OfflineAfter))
	case phaseSuspected:
		st.phase = phaseOffline
		ev = Event{Type: EventOffline, Peer: st.peer, At: now, Suspicion: r.level(st, now), Incarnation: st.inc}
		if r.opts.EvictAfter > 0 {
			r.armLocked(now, st, now.Add(r.opts.EvictAfter))
		} else {
			st.deadline = 0 // parked: kept until it recovers or is deregistered
		}
	case phaseOffline:
		delete(sh.streams, st.peer)
		ev = Event{Type: EventEvicted, Peer: st.peer, At: now, Incarnation: st.inc}
	}
	sh.mu.Unlock()
	if ev.Type == EventSuspect && r.markCount.Load() > 0 {
		r.noteDetection(ev.Peer, now)
	}
	r.publish(ev)
}

// level computes the accrual suspicion level (shard lock must be held).
func (r *Registry) level(st *stream, now clock.Time) float64 {
	if acc, ok := st.det.(detector.Accrual); ok {
		return acc.SuspicionLevel(now)
	}
	if st.det.Suspect(now) {
		return r.opts.SuspectLevel
	}
	return 0
}

func (r *Registry) publish(ev Event) {
	switch ev.Type {
	case EventSuspect:
		r.suspects.Add(1)
	case EventTrust:
		r.trusts.Add(1)
	case EventOffline:
		r.offlines.Add(1)
	case EventEvicted:
		r.evictions.Add(1)
	case EventCannotSatisfy:
		r.cannotSatisfy.Add(1)
	}
	r.bus.Publish(ev)
}

// SuspicionOf returns the peer's current accrual suspicion level at
// instant now; ok is false for unknown peers.
func (r *Registry) SuspicionOf(peer string, now clock.Time) (float64, bool) {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[peer]
	if st == nil {
		return 0, false
	}
	return r.level(st, now), true
}

// IncarnationOf returns the peer's current incarnation number; ok is
// false for unknown peers. The gossip layer uses it to stamp local
// opinions so a restarted process can refute suspicion of its old life.
func (r *Registry) IncarnationOf(peer string) (uint64, bool) {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[peer]
	if st == nil {
		return 0, false
	}
	return st.inc, true
}

// StatusOf classifies one stream at instant now; ok is false for unknown peers.
func (r *Registry) StatusOf(peer string, now clock.Time) (Status, bool) {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[peer]
	if st == nil {
		return StatusUnknown, false
	}
	s, _ := r.classify(st, now)
	return s, true
}

// classify maps a stream's phase (plus the accrual level for the
// busy/active refinement) onto Status. Shard lock must be held.
func (r *Registry) classify(st *stream, now clock.Time) (Status, float64) {
	if !st.seen {
		return StatusUnknown, 0
	}
	lvl := r.level(st, now)
	switch st.phase {
	case phaseOffline:
		return StatusOffline, lvl
	case phaseSuspected:
		return StatusSuspected, lvl
	default:
		switch {
		case lvl >= r.opts.SuspectLevel:
			// The wheel has not fired yet this tick; report what the
			// detector already knows.
			return StatusSuspected, lvl
		case lvl >= r.opts.BusyLevel:
			return StatusBusy, lvl
		default:
			return StatusActive, lvl
		}
	}
}

// Snapshot reports every stream at instant now, sorted by peer name —
// the "guidance" the paper's PlanetLab motivation asks for ("it is
// impractical to login one by one without any guidance"), rendered by
// FormatSnapshot.
func (r *Registry) Snapshot(now clock.Time) []Report {
	out := make([]Report, 0, r.Len())
	for _, sh := range r.shards {
		sh.mu.Lock()
		for name, st := range sh.streams {
			status, lvl := r.classify(st, now)
			out = append(out, Report{
				Peer:           name,
				Status:         status,
				SuspicionLevel: lvl,
				LastSeq:        st.lastSeq,
				LastArrival:    st.lastArrival,
				FreshnessPoint: st.det.FreshnessPoint(),
				Detector:       st.det.Name(),
				Incarnation:    st.inc,
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Stats returns one stream's QoS tracker; ok is false for unknown peers.
func (r *Registry) Stats(peer string) (StreamStats, bool) {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[peer]
	if st == nil {
		return StreamStats{}, false
	}
	return st.stats(), true
}

// Inspect runs fn on a stream's detector under the shard lock; it
// reports whether the peer was tracked. fn must not retain the detector
// or call back into the registry — it is a read hatch for tests and
// diagnostics (e.g. chaos acceptance asserting the safety margin widened
// during a loss burst), not a mutation path.
func (r *Registry) Inspect(peer string, fn func(det detector.Detector)) bool {
	sh := r.shardFor(peer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[peer]
	if st == nil || st.det == nil {
		return false
	}
	fn(st.det)
	return true
}

// Counters returns the registry's monotonic counters plus current gauges.
func (r *Registry) Counters() Counters {
	pub, drop := r.bus.Stats()
	fs := r.bus.FanoutStats()
	streams, heartbeats := r.tally()
	return Counters{
		Heartbeats:    heartbeats,
		Stale:         r.stale.Load(),
		Registered:    r.registered.Load(),
		InvalidNames:  r.invalidNames.Load(),
		Suspects:      r.suspects.Load(),
		Trusts:        r.trusts.Load(),
		Offlines:      r.offlines.Load(),
		Evictions:     r.evictions.Load(),
		CannotSatisfy: r.cannotSatisfy.Load(),
		BusPublished:  pub,
		BusDropped:    drop,
		FanoutMatches: fs.Matches,
		FanoutDrops:   r.bus.TopicDropped(),
		WatchRejected: r.watchRejected.Load(),
		WatchConns:    int(r.watchConns.Load()),
		Streams:       streams,
		WheelEntries:  r.wheel.len(),
		CoarseWakes:   r.coarseWakes.Load(),
		FineWakes:     r.fineWakes.Load(),
		Subscribers:   r.bus.Subscribers(),
		TopicSubs:     fs.Subscriptions,
		TrieNodes:     fs.Nodes,
	}
}

// ShardOccupancy returns the stream count per shard (lock-stripe load
// balance; the keyed hash keeps it near-uniform whatever the names).
func (r *Registry) ShardOccupancy() []int {
	out := make([]int, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.len()
	}
	return out
}
