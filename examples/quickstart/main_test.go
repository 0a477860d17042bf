//go:build amd64

package main

// Example pins the program's complete output. The run is deterministic:
// simulated clocks and seeded randomness only. Float formatting is pinned
// on amd64, like the trace generator's golden hashes.
func Example() {
	main()
	// Output:
	// state:      stable
	// margin SM:  50ms (self-tuned from the 100ms default)
	// suspect?    false (heartbeats flowing)
	// suspicion:  0.000 (accrual level: fraction of margin consumed)
	// after 200ms  silence: suspect=true  level=1.87
	// after 500ms  silence: suspect=true  level=7.87
	// after 2s     silence: suspect=true  level=37.87
	// response:   output QoS satisfies Targets{TD≤0.900s MR≤0.35/s QAP≥99.4000%}; parameters stable at SM=50ms
}
