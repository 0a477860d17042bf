//go:build amd64

package main

// Example pins the program's complete output. The run is deterministic:
// simulated clocks and seeded randomness only. Float formatting is pinned
// on amd64, like the trace generator's golden hashes.
func Example() {
	main()
	// Output:
	// consortium: 5 education clouds × 3 servers, cross-monitored managers
	// warming up 30 simulated seconds...
	// GA cloud (after warm-up):
	//   GA/server-0    active     level=0.00
	//   GA/server-1    active     level=0.00
	//   GA/server-2    active     level=0.00
	//   MD/beacon      active     level=0.00
	//   NC/beacon      active     level=0.00
	//   SC/beacon      active     level=0.00
	//   VA/beacon      active     level=0.00
	//
	// >>> GA/server-1 crashes
	// GA manager detected the crash in 200ms
	//
	// >>> SC/server-0 becomes heavy-loaded (+250ms per beat)
	// SC cloud (right after the load spike):
	//   GA/beacon      active     level=0.00
	//   MD/beacon      active     level=0.00
	//   NC/beacon      active     level=0.00
	//   SC/server-0    suspected  level=31.51
	//   SC/server-1    active     level=0.00
	//   SC/server-2    active     level=0.00
	//   VA/beacon      active     level=0.00
	// SC cloud (after the window adapts to the slower rhythm):
	//   GA/beacon      active     level=0.00
	//   MD/beacon      active     level=0.00
	//   NC/beacon      active     level=0.00
	//   SC/server-0    active     level=0.00
	//   SC/server-1    active     level=0.00
	//   SC/server-2    active     level=0.00
	//   VA/beacon      active     level=0.00
	//
	// >>> VA/beacon crashes (cloud-level outage)
	// cross-cloud quorum: suspected=true with 4/4 votes
	//
	// final status board:
	// GA cloud:
	//   GA/server-0    active     level=0.00
	//   GA/server-1    offline    level=3731.04
	//   GA/server-2    active     level=0.00
	//   MD/beacon      active     level=0.00
	//   NC/beacon      active     level=0.02
	//   SC/beacon      active     level=0.00
	//   VA/beacon      suspected  level=11.48
	// SC cloud:
	//   GA/beacon      active     level=0.00
	//   MD/beacon      active     level=0.00
	//   NC/beacon      active     level=0.00
	//   SC/server-0    active     level=0.00
	//   SC/server-1    active     level=0.00
	//   SC/server-2    active     level=0.00
	//   VA/beacon      suspected  level=14.35
	// NC cloud:
	//   GA/beacon      active     level=0.00
	//   MD/beacon      active     level=0.00
	//   NC/server-0    active     level=0.00
	//   NC/server-1    active     level=0.00
	//   NC/server-2    active     level=0.00
	//   SC/beacon      active     level=0.00
	//   VA/beacon      suspected  level=14.37
	// VA cloud:
	//   GA/beacon      active     level=0.00
	//   MD/beacon      active     level=0.00
	//   NC/beacon      active     level=0.00
	//   SC/beacon      active     level=0.00
	//   VA/server-0    active     level=0.00
	//   VA/server-1    active     level=0.00
	//   VA/server-2    active     level=0.00
	// MD cloud:
	//   GA/beacon      active     level=0.00
	//   MD/server-0    active     level=0.00
	//   MD/server-1    active     level=0.00
	//   MD/server-2    active     level=0.00
	//   NC/beacon      active     level=0.03
	//   SC/beacon      active     level=0.00
	//   VA/beacon      suspected  level=9.54
}
