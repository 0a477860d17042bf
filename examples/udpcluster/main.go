// Udpcluster: a live, real-socket deployment on localhost — several
// server processes heartbeat over UDP to one monitor running an SFD per
// peer, with an RTT probe alongside (the paper's experimental setup,
// §II-B and §V, at laptop scale). Two servers are crashed mid-run and
// the monitor's status board shows detection and the survivors.
package main

import (
	"fmt"
	"time"

	sfd "repro"
)

func main() {
	clk := sfd.NewRealClock()

	// Monitor endpoint (process q).
	monEP, err := sfd.ListenUDP("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer monEP.Close()

	targets := sfd.Targets{MaxTD: time.Second, MaxMR: 1, MinQAP: 0.99}
	mon := sfd.NewRegistry(clk, sfd.SFDFactory(targets), sfd.RegistryOptions{
		OfflineAfter: 5 * time.Second,
		// Detector verdicts only: no silence net, and the crashed servers
		// stay on the board.
		MaxSilence: -1, EvictAfter: -1,
	})
	mon.Start()
	defer mon.Stop()
	recv := sfd.NewHeartbeatReceiver(monEP, clk, mon.Observe)
	recv.Start()
	fmt.Printf("monitor listening on %s\n", monEP.Addr())

	// Five server processes (process p × 5), each with its own socket.
	const nServers = 5
	senders := make([]*sfd.HeartbeatSender, nServers)
	for i := range senders {
		ep, err := sfd.ListenUDP("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		defer ep.Close()
		senders[i] = sfd.NewHeartbeatSender(ep, monEP.Addr(), 20*time.Millisecond, clk)
		senders[i].Start()
		fmt.Printf("server %d heartbeating from %s\n", i, ep.Addr())
	}

	// RTT probe against the monitor (the paper's parallel ping process).
	probeEP, err := sfd.ListenUDP("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer probeEP.Close()
	prb := sfd.NewProber(probeEP, monEP.Addr(), clk)
	prb.Start(200 * time.Millisecond)

	time.Sleep(2 * time.Second)
	board(mon, clk, "all servers alive")
	if rtt, ok := prb.RTT(); ok {
		fmt.Printf("rtt probe: %v over %d samples (network connected)\n", rtt, prb.Samples())
	}

	fmt.Println("\n>>> crashing servers 1 and 3")
	senders[1].Crash()
	senders[3].Crash()
	time.Sleep(1500 * time.Millisecond)
	board(mon, clk, "after crashes")

	fmt.Println("\n>>> waiting for the offline grace period")
	time.Sleep(5 * time.Second)
	board(mon, clk, "crashed servers now offline")

	for _, s := range senders {
		if !s.Crashed() {
			s.Stop()
		}
	}
	prb.Stop()
}

func board(mon *sfd.Registry, clk sfd.Clock, label string) {
	fmt.Printf("--- status board (%s) ---\n", label)
	for _, r := range mon.Snapshot(clk.Now()) {
		fmt.Printf("  %-22s %-10s level=%-8.2f lastSeq=%d\n",
			r.Peer, r.Status, r.SuspicionLevel, r.LastSeq)
	}
}
