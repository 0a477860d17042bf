// Cloudmonitor: the paper's Fig. 1 scenario — the U.S. southern-states
// education cloud consortium — as a deterministic simulation. Five
// education clouds each run a manager that monitors the cloud's servers
// with SFD; managers cross-monitor each other over WAN links; a server
// crash, a heavy-loaded server, and a manager outage are injected and
// detected.
package main

import (
	"fmt"
	"time"

	sfd "repro"
)

func main() {
	targets := sfd.Targets{MaxTD: 900 * time.Millisecond, MaxMR: 0.35, MinQAP: 0.994}
	con := sfd.BuildConsortium(sfd.ConsortiumConfig{
		ServersPerCloud: 3,
		Interval:        100 * time.Millisecond,
		Jitter:          2 * time.Millisecond,
		Factory:         sfd.SFDFactory(targets),
		// Detector verdicts only: no silence net, and crashed servers
		// stay on the board.
		Options: sfd.RegistryOptions{MaxSilence: -1, EvictAfter: -1},
		Seed:    2012, // IPDPS 2012
	})

	fmt.Println("consortium: 5 education clouds × 3 servers, cross-monitored managers")
	fmt.Println("warming up 30 simulated seconds...")
	con.RunFor(30*time.Second, 10*time.Millisecond)
	printCloud(con, "GA", "after warm-up")

	// 1. A server crashes.
	fmt.Println("\n>>> GA/server-1 crashes")
	con.Sender("GA/server-1").Crash()
	if lat, ok := con.DetectCrash("GA/manager", "GA/server-1", 10*time.Second); ok {
		fmt.Printf("GA manager detected the crash in %v\n", lat)
	} else {
		fmt.Println("crash NOT detected (unexpected)")
	}

	// 2. A server becomes heavy-loaded: heartbeats stretch but don't
	// stop. Immediately after the load spike the stretched arrivals blow
	// past the tuned margin and the server is suspected; as the sliding
	// window refills with the slower rhythm, the adaptive estimator
	// re-learns the schedule and trust returns — exactly the busy-vs-dead
	// distinction the paper's intro asks detectors to support.
	fmt.Println("\n>>> SC/server-0 becomes heavy-loaded (+250ms per beat)")
	con.Sender("SC/server-0").SetBusy(250 * time.Millisecond)
	con.RunFor(10*time.Second, 10*time.Millisecond)
	printCloud(con, "SC", "right after the load spike")
	con.RunFor(6*time.Minute, 20*time.Millisecond)
	printCloud(con, "SC", "after the window adapts to the slower rhythm")

	// 3. A whole cloud's beacon goes dark: the other clouds agree via
	// quorum ("multiple monitor multiple", §VII).
	fmt.Println("\n>>> VA/beacon crashes (cloud-level outage)")
	con.Sender("VA/beacon").Crash()
	con.RunFor(3*time.Second, 10*time.Millisecond)
	q := con.CrossCloudQuorum("VA")
	sus, votes := q.Suspected("VA/beacon", con.Clk.Now())
	fmt.Printf("cross-cloud quorum: suspected=%v with %d/%d votes\n", sus, votes, len(q.Monitors))

	// Final consortium-wide view.
	fmt.Println("\nfinal status board:")
	for _, name := range []string{"GA", "SC", "NC", "VA", "MD"} {
		printCloud(con, name, "")
	}
}

func printCloud(con *sfd.Consortium, name, label string) {
	cl := con.Clouds[name]
	now := con.Clk.Now()
	if label != "" {
		fmt.Printf("%s cloud (%s):\n", name, label)
	} else {
		fmt.Printf("%s cloud:\n", name)
	}
	for _, r := range cl.Manager.Reg.Snapshot(now) {
		fmt.Printf("  %-14s %-10s level=%.2f\n", r.Peer, r.Status, r.SuspicionLevel)
	}
}
