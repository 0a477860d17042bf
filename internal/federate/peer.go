package federate

import (
	"sort"

	"repro/internal/clock"
	"repro/internal/heartbeat"
	"repro/internal/registry"
)

// Aggregator high availability: each region runs an active/standby pair.
// The pair exchange compact state heartbeats (PeerBeat — the
// digest-as-heartbeat trick one tier up: each beat feeds the receiving
// peer's SFD liveness registry exactly like a leaf digest) and replicate
// the merged fleet view by periodic anti-entropy mirroring (mirror.go).
// Leadership is Ω via Elector over the pair's liveness registry:
// deterministic lowest-id-alive, with the elector's OnChange hook
// driving promotion and demotion. Two safeguards keep failover and
// failback clean:
//
//   - Only the leader re-delegates cohorts and pushes assignment tables;
//     a standby tracks leaf deaths but defers the re-delegation sweep to
//     its promotion, continuing from the replicated AssignVersion so it
//     never regresses or double-issues a table the old active already
//     pushed.
//   - A freshly (re)started aggregator is "joining": it defers to any
//     alive ready peer that claims leadership until it has caught up by
//     anti-entropy (or JoinGrace passes with no such peer), so a blank
//     restarted old active rejoins as standby instead of reclaiming
//     leadership with an empty fleet view — lowest-id failback happens
//     only after its mirror catch-up.

// peerState is the aggregator's record of one HA peer, learned from its
// beats (peers are configured by address; identity arrives on the wire).
type peerState struct {
	id            string
	addr          string // newest datagram source address
	region        string
	inc           uint64
	lastSeq       uint64
	lastAt        clock.Time
	assignVersion uint64
	leader        bool
	ready         bool
	leaves        uint32
	cohorts       uint32
	fleetStreams  uint64
	lastMirrorAt  clock.Time
	mirrorSeq     uint64
}

// PeerInfo is one HA peer row as served by /fleet.
type PeerInfo struct {
	ID            string     `json:"id"`
	Addr          string     `json:"addr,omitempty"`
	Region        string     `json:"region,omitempty"`
	Incarnation   uint64     `json:"incarnation"`
	LastSeq       uint64     `json:"last_seq"`
	LastBeatNs    clock.Time `json:"last_beat_ns"`
	AssignVersion uint64     `json:"assign_version"`
	Leader        bool       `json:"leader"`
	Ready         bool       `json:"ready"`
	Leaves        uint32     `json:"leaves"`
	Cohorts       uint32     `json:"cohorts"`
	FleetStreams  uint64     `json:"fleet_streams"`
	LastMirrorNs  clock.Time `json:"last_mirror_ns,omitempty"`
}

// haMode reports whether this aggregator runs as part of an HA pair.
func (a *Aggregator) haMode() bool { return len(a.opts.Peers) > 0 }

// Leader reports whether this aggregator currently holds leadership
// (always true outside HA mode — a standalone aggregator is its own
// active).
func (a *Aggregator) Leader() bool { return a.leaderFlag.Load() }

// LeaderID returns the aggregator this instance currently follows as
// leader ("" while no leader is known yet).
func (a *Aggregator) LeaderID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.leaderID
}

// Role renders the HA role for /fleet: "standalone" outside HA mode,
// else "joining", "leader", or "standby".
func (a *Aggregator) Role() string {
	if !a.haMode() {
		return "standalone"
	}
	if a.joining.Load() {
		return "joining"
	}
	if a.leaderFlag.Load() {
		return "leader"
	}
	return "standby"
}

// Peers returns the HA peer records learned from beats, sorted by id.
func (a *Aggregator) Peers() []PeerInfo {
	a.mu.Lock()
	out := make([]PeerInfo, 0, len(a.peers))
	for _, ps := range a.peers {
		out = append(out, PeerInfo{
			ID: ps.id, Addr: ps.addr, Region: ps.region,
			Incarnation: ps.inc, LastSeq: ps.lastSeq, LastBeatNs: ps.lastAt,
			AssignVersion: ps.assignVersion, Leader: ps.leader, Ready: ps.ready,
			Leaves: ps.leaves, Cohorts: ps.cohorts, FleetStreams: ps.fleetStreams,
			LastMirrorNs: ps.lastMirrorAt,
		})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// peerStatusSource adapts the aggregator's liveness registry (which the
// peer beats feed, digest-as-heartbeat) into the elector's suspicion
// oracle, with one refinement: a peer that is alive but not ready (still
// catching up after a restart) reports as suspected so the election
// skips it until its anti-entropy completes.
type peerStatusSource struct{ a *Aggregator }

func (s peerStatusSource) StatusOf(peer string, now clock.Time) (registry.Status, bool) {
	s.a.mu.Lock()
	ps := s.a.peers[peer]
	ready := ps != nil && ps.ready
	s.a.mu.Unlock()
	if !ready {
		return registry.StatusSuspected, ps != nil
	}
	return s.a.liveness.StatusOf(peer, now)
}

// rebuildElectorLocked (re)builds the elector over self plus every peer
// id learned so far. Called at construction and whenever a beat reveals
// a new peer identity. The OnChange hook is the promotion/demotion
// driver: it fires inside elector.Leader (called without a.mu held).
func (a *Aggregator) rebuildElectorLocked() {
	cands := make([]string, 0, 1+len(a.peers))
	cands = append(cands, a.opts.ID)
	for id := range a.peers {
		cands = append(cands, id)
	}
	el := NewElector(a.opts.ID, peerStatusSource{a}, cands)
	el.OnChange(func(old, new string, at clock.Time) { a.setLeader(new, at) })
	a.elector = el
}

// reconcileLeadership runs once per Round, before the lock-held
// maintenance: resolve the joining gate, then let the elector speak (its
// OnChange applies transitions; the explicit setLeader call below covers
// elector rebuilds, whose first Leader() observation is not a
// transition from this aggregator's point of view).
func (a *Aggregator) reconcileLeadership(now clock.Time) {
	if !a.haMode() {
		return
	}
	if a.joining.Load() {
		a.mu.Lock()
		incumbent := a.readyLeaderPeerLocked(now)
		graced := now.Sub(a.startedAt) >= a.opts.JoinGrace
		a.mu.Unlock()
		if incumbent != "" {
			// An alive ready peer claims leadership: follow it while
			// catching up (ingestMirror ends the joining phase).
			a.setLeader(incumbent, now)
			return
		}
		if !graced {
			return // nobody to defer to yet, nobody to lead either
		}
		// JoinGrace passed with no ready leader in earshot: this is a
		// cold start (or the whole pair is down) — become eligible.
		a.joining.Store(false)
	}
	a.mu.Lock()
	el := a.elector
	a.mu.Unlock()
	a.setLeader(el.Leader(now), now)
}

// readyLeaderPeerLocked returns the id of an alive, ready peer whose
// beats claim leadership ("" when none). Liveness here is beat recency
// against the same silence bound the registry applies.
func (a *Aggregator) readyLeaderPeerLocked(now clock.Time) string {
	for _, ps := range a.peers {
		if ps.ready && ps.leader && now.Sub(ps.lastAt) <= a.opts.LeafMaxSilence {
			return ps.id
		}
	}
	return ""
}

// setLeader applies a leadership observation: promotion sweeps the
// standby's deferred re-delegations, demotion just drops the active
// duties (the new leader's higher AssignVersion supersedes any table
// this instance pushed). Idempotent; safe to call both from the
// elector's OnChange hook and from reconcileLeadership.
func (a *Aggregator) setLeader(id string, now clock.Time) {
	a.mu.Lock()
	if a.leaderID == id {
		a.mu.Unlock()
		return
	}
	a.leaderID = id
	wasLeader := a.leaderFlag.Load()
	isLeader := id == a.opts.ID
	a.leaderFlag.Store(isLeader)
	a.leadershipChanges.Add(1)
	switch {
	case isLeader && !wasLeader:
		a.promotions.Add(1)
		a.promoteLocked(now)
	case !isLeader && wasLeader:
		a.demotions.Add(1)
	}
	a.mu.Unlock()
}

// promoteLocked is the promotion sweep: re-delegate every cohort still
// owned by a leaf this aggregator believes dead (deaths the old active
// never got to act on), then retry orphans. Cohorts the old active
// already moved arrive via mirrors owned by live leaves, so the sweep
// cannot double-issue them; the version ratchet continues from the
// replicated AssignVersion.
func (a *Aggregator) promoteLocked(now clock.Time) {
	var deads []string
	for id, ls := range a.leaves {
		if ls.live == leafDead {
			deads = append(deads, id)
		}
	}
	sort.Strings(deads)
	for _, d := range deads {
		a.redelegateLocked(d, now)
	}
	a.adoptOrphansLocked(now)
}

// ingestPeerBeat folds one peer's compact state heartbeat in and feeds
// it to the liveness registry — the same digest-as-heartbeat path leaves
// use, so peer failure detection runs on the self-tuning detector stack.
func (a *Aggregator) ingestPeerBeat(from string, pb *PeerBeat) {
	if pb.Agg == a.opts.ID {
		return // own beat looped back
	}
	now := a.clk.Now()
	a.peerBeatsReceived.Add(1)

	a.mu.Lock()
	ps := a.peers[pb.Agg]
	if ps == nil {
		ps = &peerState{id: pb.Agg}
		a.peers[pb.Agg] = ps
		a.rebuildElectorLocked()
	}
	if pb.Inc < ps.inc || (pb.Inc == ps.inc && pb.Seq <= ps.lastSeq && ps.lastSeq != 0) {
		a.mu.Unlock()
		a.peerBeatsStale.Add(1)
		return
	}
	ps.addr = from
	ps.region = pb.Region
	ps.inc = pb.Inc
	ps.lastSeq = pb.Seq
	ps.lastAt = now
	ps.assignVersion = pb.AssignVersion
	ps.leader = pb.Leader
	ps.ready = pb.Ready
	ps.leaves = pb.Leaves
	ps.cohorts = pb.Cohorts
	ps.fleetStreams = pb.FleetStreams
	a.mu.Unlock()

	a.liveness.Observe(heartbeat.Arrival{
		From: pb.Agg,
		Seq:  pb.Seq,
		Send: pb.SentAt,
		Recv: now,
		Inc:  pb.Inc,
	})
}

// buildPeerTrafficLocked assembles the round's outbound HA datagrams:
// one beat plus the mirror chunks, to every configured peer address.
func (a *Aggregator) buildPeerTrafficLocked(now clock.Time) []push {
	if !a.haMode() {
		return nil
	}
	var fleetStreams uint64
	for _, c := range a.cohorts {
		fleetStreams += uint64(c.last.Streams)
	}
	a.peerSeq++
	beat := PeerBeat{
		Agg:           a.opts.ID,
		Region:        a.opts.Region,
		Inc:           a.opts.Incarnation,
		Seq:           a.peerSeq,
		SentAt:        now,
		AssignVersion: a.assignVersion,
		Leader:        a.leaderFlag.Load(),
		Ready:         !a.joining.Load(),
		Leaves:        uint32(len(a.leaves)),
		Cohorts:       uint32(len(a.cohorts)),
		FleetStreams:  fleetStreams,
	}
	beatWire := beat.Marshal()
	chunks := a.buildMirrorChunksLocked(now)
	out := make([]push, 0, len(a.opts.Peers)*(1+len(chunks)))
	for _, addr := range a.opts.Peers {
		out = append(out, push{to: addr, payload: beatWire, sent: &a.peerBeatsSent})
		for _, c := range chunks {
			out = append(out, push{to: addr, payload: c, sent: &a.mirrorsSent})
		}
	}
	return out
}
