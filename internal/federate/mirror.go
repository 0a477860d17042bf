package federate

import (
	"sort"

	"repro/internal/clock"
)

// Anti-entropy state mirroring between HA peers. Every round each
// aggregator ships its whole merged fleet view — leaf records, the
// per-cohort epoch counters, the versioned assignment table (implied by
// cohort owners), and the re-delegation history — to its peers, chunked
// to the wire bounds. The merge is CRDT-shaped: assignment ownership
// ratchets on AssignVersion (higher version wins; an equal-version
// divergence — both sides of a healed partition bumped independently —
// resolves to the lexicographically lower aggregator id, and the winner
// re-issues at a fresh version so leaves that ratcheted onto the loser's
// table converge too), cumulative transition counters merge monotonically
// per epoch, and history unions by version. Order does not matter and
// chunks apply independently, so datagram loss only delays convergence
// until the next round — the standby's view stays within one round of
// the active's.

// buildMirrorChunksLocked encodes this aggregator's fleet view as mirror
// datagrams (Mirror.pack chunks them against the record-count caps and
// the datagram byte budget). At least one chunk always goes out: an
// empty chunk still carries the assignment version and feeds the
// receiver's joining gate.
func (a *Aggregator) buildMirrorChunksLocked(now clock.Time) [][]byte {
	m := Mirror{Agg: a.opts.ID, Inc: a.opts.Incarnation, SentAt: now, AssignVersion: a.assignVersion}

	leafIDs := make([]string, 0, len(a.leaves))
	for id := range a.leaves {
		leafIDs = append(leafIDs, id)
	}
	sort.Strings(leafIDs)
	m.Leaves = make([]MirrorLeaf, 0, len(leafIDs))
	for _, id := range leafIDs {
		ls := a.leaves[id]
		m.Leaves = append(m.Leaves, MirrorLeaf{
			ID: ls.id, Addr: ls.addr, Region: ls.region, Weight: ls.weight,
			Inc: ls.inc, LastSeq: ls.lastSeq, LastAt: ls.lastAt,
			EchoedAV: ls.echoedAV, Live: uint8(ls.live),
		})
	}

	filters := make([]string, 0, len(a.cohorts))
	for f := range a.cohorts {
		filters = append(filters, f)
	}
	sort.Strings(filters)
	m.Cohorts = make([]MirrorCohort, 0, len(filters))
	for _, f := range filters {
		c := a.cohorts[f]
		last := c.last
		last.Notable = nil // notables travel in digests, not mirrors
		m.Cohorts = append(m.Cohorts, MirrorCohort{
			Filter: c.filter, Owner: c.owner, Orphaned: c.orphaned,
			EpochLeaf: c.epochLeaf, EpochInc: c.epochInc,
			CarriedSuspects: c.carriedSuspects, CarriedTrusts: c.carriedTrusts,
			CarriedOfflines: c.carriedOfflines, CarriedEvictions: c.carriedEvictions,
			Last: last, UpdatedAt: c.updatedAt,
		})
	}

	m.History = a.history
	if len(m.History) > MaxMirrorHistory {
		m.History = m.History[len(m.History)-MaxMirrorHistory:]
	}
	return m.pack(func() uint64 { a.peerSeq++; return a.peerSeq }).Chunks()
}

// ingestMirror merges one received mirror chunk. Merging is idempotent
// and monotone; see the package comment above for the resolution rules.
func (a *Aggregator) ingestMirror(from string, m *Mirror) {
	if m.Agg == a.opts.ID {
		return // own mirror looped back
	}
	now := a.clk.Now()
	a.mirrorsReceived.Add(1)

	a.mu.Lock()
	if ps := a.peers[m.Agg]; ps != nil {
		ps.lastMirrorAt = now
		ps.mirrorSeq = m.Seq
	}
	a.lastMirrorRecv.Store(int64(now))

	adoptOwnership := false
	reissue := false
	switch {
	case m.AssignVersion > a.assignVersion:
		// Higher version wins outright: adopt the mirrored table. If this
		// instance was leading at a lower version (split brain), its
		// divergent assignments are discarded here — it lost.
		adoptOwnership = true
		a.assignVersion = m.AssignVersion
		a.assignVersionFrom = m.Agg
	case m.AssignVersion == a.assignVersion && m.AssignVersion != 0:
		if a.assignVersionFrom == m.Agg {
			// Continuation chunk of a table we already adopted from this
			// peer at this version.
			adoptOwnership = true
		} else if a.mirrorOwnerConflictLocked(m) {
			// Both sides bumped to the same version independently during
			// a partition. Deterministic tiebreak: lower id wins.
			a.mirrorConflicts.Add(1)
			if m.Agg < a.opts.ID {
				adoptOwnership = true
				a.assignVersionFrom = m.Agg
			} else if a.leaderFlag.Load() {
				// We win — but leaves may have ratcheted onto the loser's
				// equal-version table and would ignore ours. Re-issue at a
				// fresh version so anti-entropy converges everyone.
				reissue = true
			}
		}
	}

	for i := range m.Leaves {
		a.mergeMirrorLeafLocked(&m.Leaves[i], now)
	}
	for i := range m.Cohorts {
		a.mergeMirrorCohortLocked(&m.Cohorts[i], adoptOwnership)
	}
	a.mergeHistoryLocked(m.History)
	if reissue {
		a.assignVersion++
		a.assignVersionFrom = ""
	}
	if a.joining.Load() {
		if ps := a.peers[m.Agg]; ps != nil && ps.ready {
			// Caught up from an established peer: eligible for election
			// (and, as lowest id, for deterministic failback) from here on.
			a.joining.Store(false)
		}
	}
	a.mu.Unlock()
}

// mirrorOwnerConflictLocked reports whether any mirrored cohort names a
// different owner than the local table.
func (a *Aggregator) mirrorOwnerConflictLocked(m *Mirror) bool {
	for i := range m.Cohorts {
		if c := a.cohorts[m.Cohorts[i].Filter]; c != nil && c.owner != m.Cohorts[i].Owner {
			return true
		}
	}
	return false
}

// mergeMirrorLeafLocked folds one mirrored leaf record in. The local
// liveness registry stays authoritative for live state once it has its
// own detector stream for the leaf (leaves dual-send, so it usually
// does); the mirrored liveness is adopted only while this aggregator has
// never heard the leaf first-hand — the restart catch-up case.
func (a *Aggregator) mergeMirrorLeafLocked(ml *MirrorLeaf, now clock.Time) {
	ls := a.leaves[ml.ID]
	if ls == nil {
		a.leaves[ml.ID] = &leafState{
			id: ml.ID, addr: ml.Addr, region: ml.Region, weight: ml.Weight,
			inc: ml.Inc, lastSeq: ml.LastSeq, lastAt: ml.LastAt,
			echoedAV: ml.EchoedAV, live: leafLiveness(ml.Live),
		}
		return
	}
	if ml.Inc > ls.inc || (ml.Inc == ls.inc && ml.LastSeq > ls.lastSeq) {
		ls.addr, ls.region, ls.weight = ml.Addr, ml.Region, ml.Weight
		ls.inc, ls.lastSeq = ml.Inc, ml.LastSeq
		if ml.LastAt > ls.lastAt {
			ls.lastAt = ml.LastAt
		}
	}
	if ml.EchoedAV > ls.echoedAV {
		ls.echoedAV = ml.EchoedAV
	}
	if _, heard := a.liveness.StatusOf(ml.ID, now); !heard {
		ls.live = leafLiveness(ml.Live)
	}
}

// mergeMirrorCohortLocked folds one mirrored cohort in. Ownership is
// adopted only on the version-ratchet paths resolved by ingestMirror;
// the cumulative transition counters always merge monotonically —
// per-field maxima within a matching epoch, and on an epoch change the
// fresher representation wins with the carried totals raised so the
// grand totals never regress (the zero-lost-transitions invariant).
func (a *Aggregator) mergeMirrorCohortLocked(mc *MirrorCohort, adoptOwnership bool) {
	c := a.cohorts[mc.Filter]
	if c == nil {
		// Unknown cohort: adopt wholesale — the restart catch-up path.
		a.cohorts[mc.Filter] = &cohortMerge{
			filter: mc.Filter, owner: mc.Owner, orphaned: mc.Orphaned,
			epochLeaf: mc.EpochLeaf, epochInc: mc.EpochInc,
			last:            mc.Last,
			carriedSuspects: mc.CarriedSuspects, carriedTrusts: mc.CarriedTrusts,
			carriedOfflines: mc.CarriedOfflines, carriedEvictions: mc.CarriedEvictions,
			updatedAt: mc.UpdatedAt,
		}
		return
	}
	if adoptOwnership {
		c.owner, c.orphaned = mc.Owner, mc.Orphaned
	}
	if c.epochLeaf == mc.EpochLeaf && c.epochInc == mc.EpochInc {
		// Same epoch on both sides: counters are cumulative within the
		// epoch, so per-field max is exact. State counts and QoS come from
		// whichever side saw the newer digest.
		if mc.UpdatedAt > c.updatedAt {
			prev := c.last
			c.last = mc.Last
			maxTransitions(&c.last, &prev)
			c.updatedAt = mc.UpdatedAt
		} else {
			maxTransitions(&c.last, &mc.Last)
		}
		maxU64(&c.carriedSuspects, mc.CarriedSuspects)
		maxU64(&c.carriedTrusts, mc.CarriedTrusts)
		maxU64(&c.carriedOfflines, mc.CarriedOfflines)
		maxU64(&c.carriedEvictions, mc.CarriedEvictions)
		return
	}
	if mc.UpdatedAt > c.updatedAt {
		// The peer is on a newer epoch (it saw an ownership handoff or
		// leaf restart this side has not): adopt its representation, but
		// floor the carried totals so our grand totals cannot shrink.
		s, t, o, e := c.totals()
		c.epochLeaf, c.epochInc = mc.EpochLeaf, mc.EpochInc
		c.last = mc.Last
		c.carriedSuspects, c.carriedTrusts = mc.CarriedSuspects, mc.CarriedTrusts
		c.carriedOfflines, c.carriedEvictions = mc.CarriedOfflines, mc.CarriedEvictions
		c.updatedAt = mc.UpdatedAt
		ns, nt, no, ne := c.totals()
		if ns < s {
			c.carriedSuspects += s - ns
		}
		if nt < t {
			c.carriedTrusts += t - nt
		}
		if no < o {
			c.carriedOfflines += o - no
		}
		if ne < e {
			c.carriedEvictions += e - ne
		}
	}
	// Else: the local epoch is fresher — the peer's copy is behind and
	// everything it counted is already included here; keep local state.
}

// maxTransitions raises dst's cumulative transition counters to at least
// src's (both rows from the same counting epoch).
func maxTransitions(dst, src *CohortDigest) {
	maxU64(&dst.Suspects, src.Suspects)
	maxU64(&dst.Trusts, src.Trusts)
	maxU64(&dst.Offlines, src.Offlines)
	maxU64(&dst.Evictions, src.Evictions)
}

func maxU64(dst *uint64, v uint64) {
	if v > *dst {
		*dst = v
	}
}

// mergeHistoryLocked unions mirrored re-delegation records in by
// version (first record seen for a version wins), keeping the ring
// sorted and capped.
func (a *Aggregator) mergeHistoryLocked(recs []RedelegationRecord) {
	if len(recs) == 0 {
		return
	}
	have := make(map[uint64]bool, len(a.history))
	for _, h := range a.history {
		have[h.Version] = true
	}
	added := false
	for _, h := range recs {
		if !have[h.Version] {
			a.history = append(a.history, h)
			have[h.Version] = true
			added = true
		}
	}
	if !added {
		return
	}
	sort.Slice(a.history, func(i, j int) bool { return a.history[i].Version < a.history[j].Version })
	if len(a.history) > a.opts.HistoryCap {
		a.history = a.history[len(a.history)-a.opts.HistoryCap:]
	}
}
