//go:build amd64

package main

// Example pins the program's complete output. The run is deterministic:
// simulated clocks and seeded randomness only. Float formatting is pinned
// on amd64, like the trace generator's golden hashes.
func Example() {
	main()
	// Output:
	// multimonitor: 3 monitors × 12 streams over netsim, gossip quorum 2
	// [t=5s] warm-up done; every stream trusted on every monitor
	//
	// >>> [t=5s] partitioning all subjects away from monC
	// [t=10s] monC local offlines: 12 of 12 — yet zero global verdicts fired
	//         (quorum 2 unmet: monA and monB still hear every heartbeat)
	//
	// >>> [t=10s] healing the partition
	// [t=13s] monC recovered all streams; 12 mistaken suspicions cost it its reputation:
	//         monA self-reported weight 1.00 (mistake rate 0.000)
	//         monB self-reported weight 1.00 (mistake rate 0.000)
	//         monC self-reported weight 0.25 (mistake rate 0.931)
	//
	// >>> [t=13s] s03 crashes for real
	// [monA t=13.36s] s03 global-suspect inc=0 (quorum 3/2 monitors, mass 2.25/1.50 (offline 1, mass 0.25))
	// [monB t=13.36s] s03 global-suspect inc=0 (quorum 3/2 monitors, mass 2.25/1.50 (offline 0, mass 0.00))
	// [monC t=13.36s] s03 global-suspect inc=0 (quorum 3/2 monitors, mass 2.25/1.50 (offline 0, mass 0.00))
	// [monA t=13.66s] s03 global-offline inc=0 (quorum 3/2 monitors, mass 2.25/1.50 (offline 2, mass 2.00))
	// [monB t=13.66s] s03 global-offline inc=0 (quorum 3/2 monitors, mass 2.25/1.50 (offline 3, mass 2.25))
	// [monC t=13.66s] s03 global-offline inc=0 (quorum 3/2 monitors, mass 2.25/1.50 (offline 3, mass 2.25))
	// [monA] verdict for s03: offline
	// [monB] verdict for s03: offline
	// [monC] verdict for s03: offline
	//
	// >>> [t=16s] s03 restarts with incarnation 1
	// [monA t=16.05s] s03 global-trust inc=1 (quorum 0/2 monitors, mass 0.00/1.50 (offline 0, mass 0.00))
	// [monB t=16.05s] s03 global-trust inc=1 (quorum 0/2 monitors, mass 0.00/1.50 (offline 0, mass 0.00))
	// [monC t=16.05s] s03 global-trust inc=1 (quorum 0/2 monitors, mass 0.00/1.50 (offline 0, mass 0.00))
	// [monA] verdict for s03: trusted (incarnation 1)
	// [monB] verdict for s03: trusted (incarnation 1)
	// [monC] verdict for s03: trusted (incarnation 1)
	//
	// network: 6585 datagrams delivered, 600 dropped — rerun it: same seed, same story
}
