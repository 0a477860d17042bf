package federate

import (
	"repro/internal/clock"
	"repro/internal/metrics"
)

// InstrumentMetrics registers the leaf's sfd_fed_leaf_* series into set.
// Like the receiver and gossip instruments, the views read the atomics
// the leaf already maintains — zero cost off the scrape path.
func (l *Leaf) InstrumentMetrics(set *metrics.Set) {
	set.CounterFunc("sfd_fed_leaf_rollups_total",
		"Roll-up rounds executed by the federation leaf.", l.rollups.Load)
	set.CounterFunc("sfd_fed_leaf_digests_sent_total",
		"Cohort digests sent to the regional aggregator.", l.digestsSent.Load)
	set.CounterFunc("sfd_fed_leaf_send_errors_total",
		"Digest sends that failed at the endpoint.", l.sendErrors.Load)
	set.CounterFunc("sfd_fed_leaf_assigns_applied_total",
		"Assignment tables adopted (version ratcheted forward).", l.assignsApplied.Load)
	set.CounterFunc("sfd_fed_leaf_assigns_stale_total",
		"Assignment pushes ignored as stale or duplicate.", l.assignsStale.Load)
	set.CounterFunc("sfd_fed_leaf_bad_datagrams_total",
		"Malformed federation datagrams received.", l.badDatagrams.Load)
	set.CounterFunc("sfd_fed_leaf_notable_omitted_total",
		"Notable transitions dropped by the per-cohort digest bound.", l.notableOmitted.Load)
	set.CounterFunc("sfd_fed_leaf_acks_received_total",
		"Digest acks received from aggregators.", l.acksReceived.Load)
	set.CounterFunc("sfd_fed_leaf_agg_unreachable_total",
		"Aggregator reachable→unreachable transitions (ack silence past the bound).", l.aggUnreachable.Load)
	set.CounterFunc("sfd_fed_leaf_bus_dropped_total",
		"Transitions the leaf's bus subscription dropped before they reached a cohort counter.", l.sub.Dropped)
	set.CounterFunc("sfd_fed_leaf_urgent_sent_total",
		"Urgent digests (changed cohorts, end of a wheel tick) sent to aggregators.", l.urgentSent.Load)
	set.CounterFunc("sfd_fed_leaf_urgent_bytes_total",
		"Bytes of urgent digests sent to aggregators.", l.urgentBytes.Load)
	set.CounterFunc("sfd_fed_leaf_urgent_deferred_total",
		"End-of-tick urgent pushes deferred because a roll-up held the leaf.", l.urgentDeferred.Load)
	set.GaugeFunc("sfd_fed_leaf_aggs_reachable",
		"Configured aggregators currently considered reachable.",
		func() float64 { return float64(l.Counters().AggsReachable) })
	set.GaugeFunc("sfd_fed_leaf_cohorts",
		"Cohorts this leaf currently owns.",
		func() float64 { return float64(l.Counters().CohortsOwned) })
	set.GaugeFunc("sfd_fed_leaf_assign_version",
		"Newest assignment-table version applied.",
		func() float64 { return float64(l.AssignVersion()) })
}

// InstrumentMetrics registers the aggregator's sfd_fed_* series into
// set. The liveness registry's own sfd_registry_* series live on its
// Metrics() set; embedders merge both onto one page.
func (a *Aggregator) InstrumentMetrics(set *metrics.Set) {
	set.CounterFunc("sfd_fed_digests_received_total",
		"Leaf digests received and accepted.", a.digestsReceived.Load)
	set.CounterFunc("sfd_fed_digests_bad_total",
		"Malformed federation datagrams received.", a.digestsBad.Load)
	set.CounterFunc("sfd_fed_digests_stale_total",
		"Digests whose rows were dropped as duplicate, reordered, from a dead incarnation, or already merged from a peer's mirror.", a.digestsStale.Load)
	set.CounterFunc("sfd_fed_rows_merged_total",
		"Cohort rows folded into the merged fleet view.", a.rowsMerged.Load)
	set.CounterFunc("sfd_fed_rows_conflicted_total",
		"Cohort rows dropped because the sender does not own the cohort.", a.rowsConflicted.Load)
	set.CounterFunc("sfd_fed_redelegations_total",
		"Re-delegation rounds triggered by leaf deaths.", a.redelegations.Load)
	set.CounterFunc("sfd_fed_cohorts_moved_total",
		"Cohorts moved to a new owner by re-delegation.", a.cohortsMoved.Load)
	set.CounterFunc("sfd_fed_assigns_sent_total",
		"Assignment-table pushes sent to leaves.", a.assignsSent.Load)
	set.CounterFunc("sfd_fed_send_errors_total",
		"Outbound federation sends (acks, assignment pushes, peer beats, mirrors) that failed at the endpoint.", a.sendErrors.Load)
	set.CounterFunc("sfd_fed_assign_overflow_total",
		"Assignment-table rows left out of a push because a leaf's table outgrew one datagram.", a.assignOverflow.Load)
	set.CounterFunc("sfd_fed_leaf_offlines_total",
		"Leaves declared offline by the liveness detector.", a.leafOfflines.Load)
	set.CounterFunc("sfd_fed_leaf_recoveries_total",
		"Dead leaves that resumed digesting and were re-trusted.", a.leafRecoveries.Load)
	set.CounterFunc("sfd_fed_urgent_rows_merged_total",
		"Urgent-digest cohort rows merged into the fleet view.", a.urgentMerged.Load)
	set.CounterFunc("sfd_fed_urgent_stale_total",
		"Urgent-digest cohort rows dropped: duplicate or reordered datagram, unknown leaf, or not the cohort's current owner epoch.", a.urgentStale.Load)
	set.GaugeFunc("sfd_fed_leaves",
		"Leaves known to the aggregator.",
		func() float64 { return float64(a.Counters().Leaves) })
	set.GaugeFunc("sfd_fed_live_leaves",
		"Leaves currently considered live.",
		func() float64 { return float64(a.Counters().LiveLeaves) })
	set.GaugeFunc("sfd_fed_cohorts",
		"Cohorts in the merged fleet view.",
		func() float64 { return float64(a.Counters().Cohorts) })
	set.GaugeFunc("sfd_fed_orphan_cohorts",
		"Cohorts whose owner is dead with no survivor assigned yet.",
		func() float64 { return float64(a.Counters().OrphanedCohorts) })
	set.GaugeFunc("sfd_fed_assign_version",
		"Current assignment-table version.",
		func() float64 { return float64(a.AssignVersion()) })
	set.GaugeFunc("sfd_fed_fleet_streams",
		"Sum of stream counts across every cohort's newest digest.",
		func() float64 { return float64(a.Counters().FleetStreams) })

	// HA series (flat at zero outside HA mode).
	set.GaugeFunc("sfd_fed_ha_is_leader",
		"1 while this aggregator holds HA leadership, else 0.",
		func() float64 {
			if a.Leader() {
				return 1
			}
			return 0
		})
	set.CounterFunc("sfd_fed_ha_leadership_changes_total",
		"Leadership transitions observed by this aggregator.", a.leadershipChanges.Load)
	set.CounterFunc("sfd_fed_ha_promotions_total",
		"Times this aggregator was promoted to leader.", a.promotions.Load)
	set.CounterFunc("sfd_fed_ha_demotions_total",
		"Times this aggregator was demoted to standby.", a.demotions.Load)
	set.CounterFunc("sfd_fed_ha_peer_beats_sent_total",
		"Peer state heartbeats sent to HA peers.", a.peerBeatsSent.Load)
	set.CounterFunc("sfd_fed_ha_peer_beats_received_total",
		"Peer state heartbeats received and accepted.", a.peerBeatsReceived.Load)
	set.CounterFunc("sfd_fed_ha_peer_beats_stale_total",
		"Peer beats dropped as duplicate, reordered, or from a dead incarnation.", a.peerBeatsStale.Load)
	set.CounterFunc("sfd_fed_ha_mirrors_sent_total",
		"Anti-entropy state mirrors sent to HA peers.", a.mirrorsSent.Load)
	set.CounterFunc("sfd_fed_ha_mirrors_received_total",
		"Anti-entropy state mirrors received and merged.", a.mirrorsReceived.Load)
	set.CounterFunc("sfd_fed_ha_mirror_conflicts_total",
		"Equal-version assignment-table divergences resolved by the id tiebreak.", a.mirrorConflicts.Load)
	set.CounterFunc("sfd_fed_ha_acks_sent_total",
		"Digest acks sent back to leaves.", a.acksSent.Load)
	set.GaugeFunc("sfd_fed_ha_mirror_lag_seconds",
		"Seconds since the last mirror was received from any peer (0 before the first).",
		func() float64 {
			last := a.lastMirrorRecv.Load()
			if last == 0 {
				return 0
			}
			return a.clk.Now().Sub(clock.Time(last)).Seconds()
		})
}
