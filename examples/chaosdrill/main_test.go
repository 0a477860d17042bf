//go:build amd64

package main

// Example pins the program's complete output. The run is deterministic:
// simulated clocks and seeded randomness only. Float formatting is pinned
// on amd64, like the trace generator's golden hashes.
func Example() {
	main()
	// Output:
	// chaosdrill: scenario "partition-drill" (seed 42): partition(dir=in,peers=s0|s1)
	//
	// >>> warm-up: all four streams trusted
	//
	// >>> t=3s: inbound partition drops s0 and s1 (s2, s3 untouched)
	//   [t=3.1s] s0 suspect
	//   [t=3.105s] s1 suspect
	//   [t=3.6s] s0 offline
	//   [t=3.605s] s1 offline
	//   partition dropped 80 datagrams; monitor saw 276
	//
	// >>> t=7s: partition healed; first surviving heartbeat recants each suspicion
	//   [t=7s] s0 trust
	//   [t=7.005s] s1 trust
	//
	// registry: heartbeats=317 suspects=2 offline=2 trusts=2 (streams=4)
	// chaos:    armed=1 cleared=1 active now=0
	//
	// injection log: 7836 bytes, 397 entries — first drops (seed-deterministic, byte-identical per run):
	//   116 in s0 28 drop:partition
	//   117 in s1 28 drop:partition
	//   120 in s0 28 drop:partition
	//
	// rerun it: same seed, same story — byte for byte.
}
