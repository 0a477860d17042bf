package persist

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// CheckpointOptions tunes the checkpoint cadence.
type CheckpointOptions struct {
	// Interval between full snapshots. Default 30s.
	Interval clock.Duration
	// FlushInterval between journal flushes of accumulated deltas.
	// Default 1s.
	FlushInterval clock.Duration
	// JournalMaxBytes rotates to a fresh full snapshot once the delta
	// journal grows past this size, bounding both replay work on restore
	// and disk held by any one epoch. Default 1 MiB.
	JournalMaxBytes int64
	// Retain is the number of snapshot epochs kept on disk. Default 2.
	Retain int
}

func (o *CheckpointOptions) normalize() {
	if o.Interval <= 0 {
		o.Interval = 30 * clock.Second
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = clock.Second
	}
	if o.JournalMaxBytes <= 0 {
		o.JournalMaxBytes = 1 << 20
	}
	if o.Retain < 2 {
		o.Retain = 2
	}
}

// Checkpointer drives the Store on a cadence: periodic full snapshots,
// periodic delta flushes, and size-triggered journal rotation. It pulls
// state through two callbacks supplied by the owner (the registry) so it
// never touches registry internals — and, critically, the registry's
// ingest path never touches it.
type Checkpointer struct {
	clk   clock.Clock
	store *Store
	opts  CheckpointOptions

	// full captures a complete snapshot at the given instant.
	full func(clock.Time) *Snapshot
	// drain returns the deltas accumulated since the last call,
	// appending to dst; it must not block on the ingest path.
	drain func(dst []Delta) []Delta

	mu       sync.Mutex // serializes Store access across timer paths
	lastFull clock.Time
	buf      []Delta

	started atomic.Bool
	stopped atomic.Bool
	loop    clock.Loop // the cadence

	// Counters are maintained unconditionally (they are cheap and only
	// touched on checkpoint cadence, not ingest); InstrumentMetrics
	// exposes them.
	snapshots     metrics.Counter
	deltasWritten metrics.Counter
	rotations     metrics.Counter
	errors        metrics.Counter
	lastBytes     atomic.Int64
	wallLastFull  atomic.Int64 // wall ns of last full snapshot, for age gauge
}

// NewCheckpointer wires a checkpointer over store. full and drain are
// the state sources; see the field docs. Call Start to begin the
// cadence, or Checkpoint/Flush manually (tests, final shutdown flush).
func NewCheckpointer(clk clock.Clock, store *Store, full func(clock.Time) *Snapshot, drain func([]Delta) []Delta, opts CheckpointOptions) *Checkpointer {
	opts.normalize()
	store.retain = opts.Retain
	return &Checkpointer{
		clk:   clk,
		store: store,
		opts:  opts,
		full:  full,
		drain: drain,
	}
}

// Start begins the checkpoint cadence, a clock.Loop calling tick every
// FlushInterval. Idempotent.
func (c *Checkpointer) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	c.loop.Every(c.clk, c.opts.FlushInterval, c.tick)
}

// Stop halts the cadence, waiting out a tick in flight, and writes a
// final full snapshot (the shutdown flush), so a graceful exit restores
// exactly; nothing is written after it. Idempotent.
func (c *Checkpointer) Stop() {
	if !c.stopped.CompareAndSwap(false, true) {
		return
	}
	c.loop.Stop()
	c.Checkpoint()
	c.mu.Lock()
	c.store.Close()
	c.mu.Unlock()
}

// tick is one cadence step: flush deltas, rotate if the journal is over
// budget or the full-snapshot interval has elapsed.
func (c *Checkpointer) tick(now clock.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	due := c.store.Epoch() == 0 ||
		now.Sub(c.lastFull) >= c.opts.Interval ||
		c.store.JournalLen() > c.opts.JournalMaxBytes
	if due {
		c.checkpointLocked(now)
		return
	}
	c.flushLocked()
}

// Flush drains pending deltas into the journal now. Rotates first if
// the journal is over budget.
func (c *Checkpointer) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store.Epoch() != 0 && c.store.JournalLen() > c.opts.JournalMaxBytes {
		c.checkpointLocked(c.clk.Now())
		return
	}
	c.flushLocked()
}

// Checkpoint writes a full snapshot now, folding any pending deltas in
// (a full snapshot supersedes them) and starting a fresh journal.
func (c *Checkpointer) Checkpoint() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checkpointLocked(c.clk.Now())
}

func (c *Checkpointer) flushLocked() {
	c.buf = c.drain(c.buf[:0])
	if c.store.Epoch() == 0 || len(c.buf) == 0 {
		// No snapshot yet ⇒ deltas have nothing to amend; drop them — the
		// first checkpoint captures the same state in full.
		c.buf = c.buf[:0]
		return
	}
	if err := c.store.AppendDeltas(c.buf); err != nil {
		c.errors.Inc()
		return
	}
	c.deltasWritten.Add(uint64(len(c.buf)))
	c.buf = c.buf[:0]
}

func (c *Checkpointer) checkpointLocked(now clock.Time) {
	c.drain(nil) // superseded by the full snapshot
	snap := c.full(now)
	if snap == nil {
		return
	}
	rotated := c.store.Epoch() != 0
	n, err := c.store.WriteSnapshot(snap)
	if err != nil {
		c.errors.Inc()
		return
	}
	c.snapshots.Inc()
	if rotated {
		c.rotations.Inc()
	}
	c.lastFull = now
	c.lastBytes.Store(int64(n))
	c.wallLastFull.Store(time.Now().UnixNano())
}

// Snapshots returns the number of full snapshots written.
func (c *Checkpointer) Snapshots() uint64 { return c.snapshots.Value() }

// Deltas returns the number of delta records appended to journals.
func (c *Checkpointer) Deltas() uint64 { return c.deltasWritten.Value() }

// Rotations returns the number of journal rotations (full snapshots
// written after the first).
func (c *Checkpointer) Rotations() uint64 { return c.rotations.Value() }

// Errors returns the number of snapshot/journal write failures.
func (c *Checkpointer) Errors() uint64 { return c.errors.Value() }

// SnapshotAgeSeconds returns wall seconds since the last full snapshot,
// or -1 before the first one.
func (c *Checkpointer) SnapshotAgeSeconds() float64 {
	last := c.wallLastFull.Load()
	if last == 0 {
		return -1
	}
	return float64(time.Now().UnixNano()-last) / 1e9
}

// SnapshotBytes returns the encoded size of the last full snapshot.
func (c *Checkpointer) SnapshotBytes() int64 { return c.lastBytes.Load() }

// InstrumentMetrics registers the checkpointer's sfd_persist_* series on
// set: snapshot/delta/rotation/error counters and a snapshot-age gauge.
func (c *Checkpointer) InstrumentMetrics(set *metrics.Set) {
	set.CounterFunc("sfd_persist_snapshots_total",
		"Full state snapshots written.", c.Snapshots)
	set.CounterFunc("sfd_persist_deltas_total",
		"Incremental delta records appended to the journal.", c.Deltas)
	set.CounterFunc("sfd_persist_rotations_total",
		"Journal rotations (full snapshot supersedes the delta journal).", c.Rotations)
	set.CounterFunc("sfd_persist_errors_total",
		"Snapshot or journal write failures.", c.Errors)
	set.GaugeFunc("sfd_persist_snapshot_age_seconds",
		"Seconds since the last full snapshot was written.", c.SnapshotAgeSeconds)
	set.GaugeFunc("sfd_persist_snapshot_bytes",
		"Encoded size of the last full snapshot.", func() float64 {
			return float64(c.SnapshotBytes())
		})
}
