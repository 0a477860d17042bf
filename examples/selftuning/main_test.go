//go:build amd64

package main

// Example pins the program's complete output. The run is deterministic:
// simulated clocks and seeded randomness only. Float formatting is pinned
// on amd64, like the trace generator's golden hashes.
func Example() {
	main()
	// Output:
	// run 1: SM₁ = 3s, targets Targets{TD≤0.900s MR≤0.35/s QAP≥99.4000%}
	//   final state:  stable
	//   final margin: 550ms
	//   measured:     SFD(SM₁=3s,α=100ms,β=0.5): TD=0.8772s MR=0/s QAP=100.00000% (mistakes=0 over 1914s)
	//   margin trajectory (every ~20th adjustment slot):
	//     slot    2 2.95s decrease  ###########################################################
	//     slot   22 1.95s decrease  #######################################
	//     slot   42 950ms decrease  ###################
	//     slot   62 650ms stable    #############
	//     slot   82 600ms stable    ############
	//     slot  102 600ms stable    ############
	//     slot  122 550ms stable    ###########
	//     slot  142 550ms stable    ###########
	//     slot  162 550ms stable    ###########
	//     slot  182 550ms stable    ###########
	//     slot  202 550ms stable    ###########
	//     slot  222 550ms stable    ###########
	//     slot  242 550ms stable    ###########
	//     slot  262 550ms stable    ###########
	//     slot  282 550ms stable    ###########
	//
	// run 2: impossible targets Targets{TD≤0.001s MR≤1e-09/s QAP≥100.0000%}
	//   state:    infeasible
	//   response: this SFD can not satisfy the QoS requirement Targets{TD≤0.001s MR≤1e-09/s QAP≥100.0000%} for the application
	//
	// run 3: general method wrapping Chen FD (α₁ = 2s)
	//   tuned α:  550ms
	//   state:    stable
}
