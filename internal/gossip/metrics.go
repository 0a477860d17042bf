package gossip

import "repro/internal/metrics"

// InstrumentMetrics registers the gossiper's instruments in set —
// typically the registry's set, so one /metrics page covers local
// detection and global dissemination. All counters are scrape-time reads
// of atomics the gossip rounds already maintain; the anti-entropy path
// gains nothing.
func (g *Gossiper) InstrumentMetrics(set *metrics.Set) {
	set.CounterFunc("sfd_gossip_digests_sent_total",
		"Digest datagrams sent to peer monitors.", g.digestsSent.Load)
	set.CounterFunc("sfd_gossip_send_errors_total",
		"Digest sends that failed at the endpoint.", g.sendErrors.Load)
	set.CounterFunc("sfd_gossip_digests_received_total",
		"Digest datagrams received and decoded.", g.digestsReceived.Load)
	set.CounterFunc("sfd_gossip_digests_bad_total",
		"Datagrams rejected as malformed or wrong version.", g.digestsBad.Load)
	set.CounterFunc("sfd_gossip_entries_merged_total",
		"Remote opinions merged into the opinion table.", g.entriesMerged.Load)
	set.CounterFunc("sfd_gossip_opinions_expired_total",
		"Remote opinions dropped after OpinionTTL without refresh.", g.opinionsExpired.Load)
	set.CounterFunc("sfd_gossip_global_suspects_total",
		"Quorum-corroborated GlobalSuspect verdicts published.", g.globalSuspects.Load)
	set.CounterFunc("sfd_gossip_global_offlines_total",
		"Quorum-corroborated GlobalOffline verdicts published.", g.globalOfflines.Load)
	set.CounterFunc("sfd_gossip_global_trusts_total",
		"GlobalTrust retractions published.", g.globalTrusts.Load)
	set.GaugeFunc("sfd_gossip_weight",
		"This monitor's self-assessed accuracy weight (1 − mistake-rate EWMA, floored).",
		g.Weight)
	set.GaugeFunc("sfd_gossip_mistake_rate",
		"EWMA of local suspicion-episode outcomes (1 = the suspect recovered).",
		g.MistakeRate)
	set.GaugeFunc("sfd_gossip_remote_opinions",
		"Live (subject, monitor) remote-opinion entries.",
		func() float64 { return float64(g.Counters().RemoteOpinions) })
	set.GaugeFunc("sfd_gossip_open_verdicts",
		"Subjects with a non-trusted global verdict outstanding.",
		func() float64 { return float64(g.Counters().OpenVerdicts) })
}
