package registry

import (
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/persist"
)

// statePorter is implemented by detectors (core.SFD) that can carry
// their learned state across process lives. Detectors without it restart
// cold on restore — correct, just slower to converge.
type statePorter interface {
	ExportState() core.SFDState
	ImportState(core.SFDState) error
	Rewarm(int)
}

// auxSnapFunc supplies the gossip layer's persisted record at snapshot
// time (registered by gossip.New; nil when no gossiper is attached).
type auxSnapFunc func(clock.Time) *persist.GossipRecord

// SetAuxSnapshot registers fn to be called under each full snapshot so
// auxiliary subsystem state (the gossip opinion tables) rides in the
// same atomic file as the stream table.
func (r *Registry) SetAuxSnapshot(fn func(clock.Time) *persist.GossipRecord) {
	r.auxSnap.Store(auxSnapFunc(fn))
}

func (r *Registry) auxSnapshotFn() auxSnapFunc {
	fn, _ := r.auxSnap.Load().(auxSnapFunc)
	return fn
}

// ClaimRestoredGossip hands over the gossip record recovered from the
// snapshot, once: the first caller (the gossiper, at construction) gets
// it, later calls get nil.
func (r *Registry) ClaimRestoredGossip() *persist.GossipRecord {
	r.restoreMu.Lock()
	defer r.restoreMu.Unlock()
	g := r.restoredGossip
	r.restoredGossip = nil
	return g
}

// Checkpointer returns the running checkpointer (nil before Start or
// when persistence is disabled).
func (r *Registry) Checkpointer() *persist.Checkpointer { return r.ckpt.Load() }

// RestoredStreams reports how many streams the automatic (or explicit)
// restore recovered, and the error it hit, if any. persist.ErrNoSnapshot
// is normal first-boot; any other error means a corrupt state directory
// was skipped and the registry cold-started.
func (r *Registry) RestoredStreams() (int, error) {
	r.restoreMu.Lock()
	defer r.restoreMu.Unlock()
	return r.restoredCount, r.restoreErr
}

// openStoreLocked lazily opens the state directory (restoreMu held).
func (r *Registry) openStoreLocked() error {
	if r.store != nil || r.opts.StateDir == "" {
		return nil
	}
	st, err := persist.OpenStore(r.opts.StateDir, 2)
	if err != nil {
		return err
	}
	r.store = st
	return nil
}

// RestoreFromDisk loads the newest valid snapshot/journal pair from
// Options.StateDir and imports it. downtime is how long the monitor was
// down (the gap between the snapshot instant and this process's clock
// "now"); pass a negative value to derive it from the snapshot's
// wall-clock anchor — the right choice everywhere except simulated-clock
// tests, which know their downtime exactly.
//
// Start calls this automatically (with auto downtime) on the first
// start when StateDir is set; calling it explicitly first — before any
// heartbeats — lets embedders control the downtime and inspect the
// result. Restore is one-shot: later calls are no-ops returning the
// first outcome.
func (r *Registry) RestoreFromDisk(downtime clock.Duration) (int, error) {
	r.restoreMu.Lock()
	defer r.restoreMu.Unlock()
	if r.restored {
		return r.restoredCount, r.restoreErr
	}
	r.restored = true
	if err := r.openStoreLocked(); err != nil {
		r.restoreErr = err
		return 0, err
	}
	if r.store == nil {
		return 0, nil
	}
	snap, deltas, err := r.store.Load()
	if err != nil {
		r.restoreErr = err
		return 0, err
	}
	if downtime < 0 {
		downtime = clock.Duration(time.Now().UnixNano() - snap.WallNano)
		if downtime < 0 {
			downtime = 0
		}
	}
	n := r.importSnapshot(snap, deltas, downtime)
	r.restoredGossip = snap.Gossip
	r.restoredCount = n
	return n, nil
}

// importSnapshot rebases snap into this process's clock domain, folds
// the journal deltas in, and files every recovered stream. Streams that
// already exist live (heartbeats beat the restore) keep their live
// state. Returns the number of streams imported.
func (r *Registry) importSnapshot(snap *persist.Snapshot, deltas []persist.Delta, downtime clock.Duration) int {
	now := r.clk.Now()
	// The snapshot instant corresponds to (now - downtime) on our clock.
	shift := now.Sub(snap.TakenAt) - downtime
	snap.Rebase(shift)
	persist.RebaseDeltas(deltas, shift)
	snap.Apply(deltas)

	imported := 0
	for i := range snap.Streams {
		rec := &snap.Streams[i]
		if rec.Peer == "" {
			continue
		}
		sh := r.shardFor(rec.Peer)
		sh.mu.Lock()
		if _, exists := sh.streams[rec.Peer]; exists {
			sh.mu.Unlock()
			continue
		}
		st := r.newStreamLocked(sh, rec.Peer, false)
		st.inc = rec.Inc
		st.seen = rec.Seen
		st.lastSeq = rec.LastSeq
		st.lastArrival = rec.LastArrival
		st.suspectSince = rec.SuspectSince
		st.phase = wirePhase(rec.Phase)
		st.setStats(StreamStats{
			Heartbeats:  rec.Heartbeats,
			Stale:       rec.Stale,
			Mistakes:    rec.Mistakes,
			MistakeTime: rec.MistakeTime,
		})
		if rec.Det != nil {
			if sp, ok := st.det.(statePorter); ok {
				if err := sp.ImportState(*rec.Det); err == nil {
					sp.Rewarm(r.opts.RewarmArrivals)
				} else {
					st.det = r.factory(rec.Peer) // invalid state: cold detector
				}
			}
		}
		// Rewarm deadlines. A trusted stream gets the grace window: its
		// pre-outage freshness point proves nothing (the monitor, not the
		// sender, was down — Rewarm cleared it), so it is suspected only
		// if no heartbeat lands within RewarmGrace. Suspected and offline
		// streams resume their machine where it stood.
		switch st.phase {
		case phaseTrusted:
			r.rearmLocked(st, now.Add(r.opts.RewarmGrace))
		case phaseSuspected:
			if st.suspectSince == 0 || st.suspectSince.After(now) {
				st.suspectSince = now
			}
			dl := st.suspectSince.Add(r.opts.OfflineAfter)
			if !dl.After(now) {
				dl = now.Add(r.opts.WheelTick)
			}
			r.rearmLocked(st, dl)
		case phaseOffline:
			if r.opts.EvictAfter > 0 {
				r.rearmLocked(st, now.Add(r.opts.EvictAfter))
			} else {
				st.deadline = 0
			}
		}
		sh.mu.Unlock()
		imported++
	}
	return imported
}

// ExportSnapshot captures the full registry state at instant now as a
// persist.Snapshot (plus the gossip record when a gossiper registered
// one). It walks the shards under their stripe locks — checkpoint-path
// work, never ingest-path.
func (r *Registry) ExportSnapshot(now clock.Time) *persist.Snapshot {
	snap := &persist.Snapshot{
		TakenAt:  now,
		WallNano: time.Now().UnixNano(),
		Streams:  make([]persist.StreamRecord, 0, r.Len()),
	}
	for _, sh := range r.shards {
		sh.mu.Lock()
		for name, st := range sh.streams {
			stats := st.stats()
			rec := persist.StreamRecord{
				Peer:         name,
				Inc:          st.inc,
				Phase:        phaseWire(st.phase),
				Seen:         st.seen,
				LastSeq:      st.lastSeq,
				LastArrival:  st.lastArrival,
				SuspectSince: st.suspectSince,
				Heartbeats:   stats.Heartbeats,
				Stale:        stats.Stale,
				Mistakes:     stats.Mistakes,
				MistakeTime:  stats.MistakeTime,
			}
			if sp, ok := st.det.(statePorter); ok {
				s := sp.ExportState()
				rec.Det = &s
			}
			snap.Streams = append(snap.Streams, rec)
		}
		sh.mu.Unlock()
	}
	if fn := r.auxSnapshotFn(); fn != nil {
		snap.Gossip = fn(now)
	}
	return snap
}

// SaveSnapshot forces a full checkpoint now — the graceful-shutdown
// flush, also usable for on-demand state export. With the checkpointer
// running it routes through it (keeping Store access serialized);
// otherwise it writes directly.
func (r *Registry) SaveSnapshot() error {
	if c := r.ckpt.Load(); c != nil {
		c.Checkpoint()
		return nil
	}
	r.restoreMu.Lock()
	defer r.restoreMu.Unlock()
	if err := r.openStoreLocked(); err != nil {
		return err
	}
	if r.store == nil {
		return nil
	}
	_, err := r.store.WriteSnapshot(r.ExportSnapshot(r.clk.Now()))
	return err
}

// startPersist runs the persistence side of Start: auto-restore (if not
// already done explicitly), subscribe the delta source, and launch the
// checkpointer. No-op when StateDir is unset.
func (r *Registry) startPersist() {
	if r.opts.StateDir == "" {
		return
	}
	r.RestoreFromDisk(-1) // no-op if already restored; errors via RestoredStreams
	r.restoreMu.Lock()
	store := r.store
	if store != nil && r.deltaSub == nil {
		r.deltaSub = r.bus.Subscribe(4096)
	}
	r.restoreMu.Unlock()
	if store == nil {
		return
	}
	ckpt := persist.NewCheckpointer(r.clk, store, r.ExportSnapshot, r.drainDeltas,
		persist.CheckpointOptions{
			Interval:        r.opts.CheckpointInterval,
			FlushInterval:   r.opts.JournalFlush,
			JournalMaxBytes: r.opts.JournalMaxBytes,
		})
	r.ckpt.Store(ckpt)
	ckpt.Start()
}

// stopPersist flushes the final snapshot and releases the store.
func (r *Registry) stopPersist() {
	if c := r.ckpt.Load(); c != nil {
		c.Stop()
	}
	r.restoreMu.Lock()
	sub := r.deltaSub
	r.deltaSub = nil
	r.restoreMu.Unlock()
	if sub != nil {
		sub.Close()
	}
}

// drainDeltas converts events queued on the persistence subscription
// into journal deltas, appending to dst. Non-blocking: called on the
// checkpointer's cadence, never the ingest path.
func (r *Registry) drainDeltas(dst []persist.Delta) []persist.Delta {
	r.restoreMu.Lock()
	sub := r.deltaSub
	r.restoreMu.Unlock()
	if sub == nil {
		return dst
	}
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return dst
			}
			if d, ok := deltaFromEvent(ev); ok {
				dst = append(dst, d)
			}
		default:
			return dst
		}
	}
}

// deltaFromEvent maps bus events onto journal deltas. Global verdicts
// and infeasibility reports are derived state — the gossip record and
// detector state cover them — so only lifecycle transitions journal.
func deltaFromEvent(ev Event) (persist.Delta, bool) {
	d := persist.Delta{Peer: ev.Peer, At: ev.At, Inc: ev.Incarnation}
	switch ev.Type {
	case EventSuspect:
		d.Kind, d.Phase = persist.DeltaPhase, persist.PhaseSuspected
	case EventTrust:
		d.Kind, d.Phase = persist.DeltaPhase, persist.PhaseTrusted
	case EventOffline:
		d.Kind, d.Phase = persist.DeltaPhase, persist.PhaseOffline
	case EventEvicted:
		d.Kind = persist.DeltaEvict
	default:
		return persist.Delta{}, false
	}
	return d, true
}

// phaseWire / wirePhase map between the registry's unexported phase and
// the persistence wire constants (kept in lockstep by TestPhaseWire).
func phaseWire(p phase) uint8 {
	switch p {
	case phaseSuspected:
		return persist.PhaseSuspected
	case phaseOffline:
		return persist.PhaseOffline
	default:
		return persist.PhaseTrusted
	}
}

func wirePhase(w uint8) phase {
	switch w {
	case persist.PhaseSuspected:
		return phaseSuspected
	case persist.PhaseOffline:
		return phaseOffline
	default:
		return phaseTrusted
	}
}
