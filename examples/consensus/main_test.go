//go:build amd64

package main

// Example pins the program's complete output. The run is deterministic:
// simulated clocks and seeded randomness only. Float formatting is pinned
// on amd64, like the trace generator's golden hashes.
func Example() {
	main()
	// Output:
	// p0 proposes "commit-tx-17"
	// p1 proposes "abort"
	// p2 proposes "commit-tx-17"
	// p3 proposes "abort"
	// p4 proposes "commit-tx-17"
	// p0 (round-0 coordinator) will crash at t=1s; protocol starts at t=3s
	//
	// all correct processes decided "abort"
	//   p0: crashed, no decision
	//   p1: decided "abort" (round 1)
	//   p2: decided "abort" (round 2)
	//   p3: decided "abort" (round 3)
	//   p4: decided "abort" (round 2)
}
