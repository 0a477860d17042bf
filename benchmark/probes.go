package main

import (
	"fmt"
	"time"
)

// commonProbes fills the per-layer metrics that are timed calls into one
// exported function each. They do not depend on the workload, so every
// traced run reports them — including workloads on which the layer
// itself did nothing.
func commonProbes(clk *benchClock, rep *report) error {
	var pkts [][]byte
	for i := 0; i < 64; i++ {
		pkts = append(pkts, encodeHeartbeat(nil, fmt.Sprintf("dc/zone-%d/rack-%02d/s-%02d", i%10, i%20, i), uint64(i+1), int64(i), 1))
	}
	dec, enc := probeHeartbeatCodec(pkts)
	rep.set("heartbeat.decode_ns", dec)
	rep.set("heartbeat.encode_ns", enc)
	send, err := probeTransportSend(pkts[0])
	if err != nil {
		return err
	}
	rep.set("transport.send_ns", send)
	for name, ns := range probeDetectors() {
		rep.set(name, ns)
	}

	var names []string
	for z := 0; z < stormZones; z++ {
		for r := 0; r < stormRacks; r++ {
			names = append(names, fmt.Sprintf("dc/zone-%d/rack-%02d/s-%02d", z, r, (z+r)%stormMembers))
		}
	}
	rep.set("fanout.match_ns", probeFanoutMatch(stormFilters(stormZones, stormRacks), names))

	ns, _ := probeFederationCodec(fleetCohorts)
	rep.set("federate.codec_ns_per_digest", ns)
	ns, bytes := probeGossipCodec(64)
	rep.set("gossip.codec_ns_per_digest", ns)
	if rep.values["gossip.digest_bytes"] == 0 {
		rep.set("gossip.digest_bytes", float64(bytes))
	}
	rep.set("gossip.merge_us", probeGossipMerge(clk, 64))

	// The replay workload measures these two on its real inputs.
	if rep.values["trace.gen_ns_per_hb"] == 0 {
		const n = 100_000
		t0 := time.Now()
		tr, err := genTrace("WAN-1", n)
		if err != nil {
			return err
		}
		rep.set("trace.gen_ns_per_hb", float64(time.Since(t0))/n)
		t0 = time.Now()
		q := replayQoS(tr.tr, "sfd")
		rep.set("qos.replay_ns_per_hb", float64(time.Since(t0))/float64(q.Arrivals))
	}
	return nil
}
