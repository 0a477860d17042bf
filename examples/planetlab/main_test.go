//go:build amd64

package main

// Example pins the program's complete output. The run is deterministic:
// simulated clocks and seeded randomness only. Float formatting is pinned
// on amd64, like the trace generator's golden hashes.
func Example() {
	main()
	// Output:
	// monitoring 200 nodes from one observatory (SFD per node)...
	// crashed 18 nodes; letting detection settle...
	//
	// status summary (the 'guidance' the paper asks for):
	//   active      182 nodes
	//   offline      18 nodes
	//
	// nodes to investigate (18):
	// node-182  node-183  node-184  node-185  node-186  node-187
	// node-188  node-189  node-190  node-191  node-192  node-193
	// node-194  node-195  node-196  node-197  node-198  node-199
	//
	// detection check: 18/18 crashed nodes flagged
}
