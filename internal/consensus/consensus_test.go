package consensus

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/netsim"
	"repro/internal/registry"
)

const msX = clock.Millisecond

func proposeAll(c *Cluster, values ...string) {
	for i, v := range values {
		c.Propose(i, v)
	}
}

func assertAgreementAndValidity(t *testing.T, c *Cluster, proposals []string) string {
	t.Helper()
	v, err := c.Agreement()
	if err != nil {
		t.Fatal(err)
	}
	if v == "" {
		t.Fatal("nobody decided")
	}
	valid := false
	for _, p := range proposals {
		if p == v {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("decision %q not among proposals %v", v, proposals)
	}
	return v
}

func TestConsensusNoCrash(t *testing.T) {
	c := New(Options{N: 5, Seed: 1})
	proposals := []string{"a", "b", "c", "d", "e"}
	proposeAll(c, proposals...)
	if !c.Run(30 * clock.Second) {
		t.Fatal("consensus did not terminate")
	}
	v := assertAgreementAndValidity(t, c, proposals)
	// Round-0 coordinator is p0; with no crashes its proposal should win
	// and everyone decides quickly.
	if v != "a" {
		t.Logf("decided %q (p0's proposal was a) — legal but unusual", v)
	}
	for i, p := range c.Procs {
		if _, ok := p.Decided(); !ok {
			t.Fatalf("p%d never decided", i)
		}
	}
}

func TestConsensusCoordinatorCrash(t *testing.T) {
	c := New(Options{N: 5, Seed: 2, StartDelay: 3 * clock.Second})
	proposals := []string{"a", "b", "c", "d", "e"}
	proposeAll(c, proposals...)
	c.CrashAt(0, clock.Second) // round-0 coordinator dies before the protocol starts
	if !c.Run(60 * clock.Second) {
		t.Fatal("consensus did not terminate after coordinator crash")
	}
	v := assertAgreementAndValidity(t, c, proposals)
	for i, p := range c.Procs {
		if i == 0 {
			continue
		}
		if d, ok := p.Decided(); !ok || d != v {
			t.Fatalf("p%d decision %q,%v; want %q", i, d, ok, v)
		}
	}
	// The crashed process must not have decided.
	if _, ok := c.Procs[0].Decided(); ok {
		t.Fatal("crashed process decided")
	}
}

func TestConsensusMinorityCrashes(t *testing.T) {
	// n=7 tolerates 3 crashes (majority 4).
	c := New(Options{N: 7, Seed: 3, StartDelay: 3 * clock.Second})
	var proposals []string
	for i := 0; i < 7; i++ {
		proposals = append(proposals, fmt.Sprintf("v%d", i))
	}
	proposeAll(c, proposals...)
	c.CrashAt(0, clock.Second)
	c.CrashAt(1, clock.Second)
	c.CrashAt(2, clock.Second) // three consecutive coordinators dead
	if !c.Run(120 * clock.Second) {
		t.Fatal("consensus did not terminate with 3 crashed coordinators")
	}
	assertAgreementAndValidity(t, c, proposals)
}

func TestConsensusSafetyUnderWrongSuspicions(t *testing.T) {
	// A recklessly aggressive detector (tiny margin) produces wrong
	// suspicions constantly; agreement and validity must still hold —
	// only termination may slow down (it shouldn't here: rounds rotate).
	factory := func(string) detector.Detector {
		return detector.NewChen(5, 50*msX, 0) // zero margin: flappy
	}
	c := New(Options{N: 5, Seed: 4, Factory: factory})
	proposals := []string{"a", "b", "c", "d", "e"}
	proposeAll(c, proposals...)
	if !c.Run(120 * clock.Second) {
		t.Fatal("consensus did not terminate under a flappy detector")
	}
	assertAgreementAndValidity(t, c, proposals)
}

func TestConsensusWithSFDDetector(t *testing.T) {
	// The headline claim: SFD (accrual, ◇P_ac) drives consensus.
	factory := func(string) detector.Detector {
		return core.New(core.Config{
			WindowSize: 20, Interval: 50 * msX, InitialMargin: 200 * msX,
		})
	}
	c := New(Options{N: 5, Seed: 5, Factory: factory, StartDelay: 5 * clock.Second})
	proposals := []string{"red", "green", "blue", "cyan", "teal"}
	proposeAll(c, proposals...)
	c.CrashAt(0, 3*clock.Second)
	if !c.Run(60 * clock.Second) {
		t.Fatal("SFD-driven consensus did not terminate")
	}
	assertAgreementAndValidity(t, c, proposals)
}

func TestConsensusDeterministic(t *testing.T) {
	run := func() (string, []int) {
		c := New(Options{N: 5, Seed: 9, StartDelay: 3 * clock.Second})
		proposeAll(c, "a", "b", "c", "d", "e")
		c.CrashAt(0, clock.Second)
		c.Run(60 * clock.Second)
		v, _ := c.Agreement()
		var rounds []int
		for _, p := range c.Procs {
			rounds = append(rounds, p.Round())
		}
		return v, rounds
	}
	v1, r1 := run()
	v2, r2 := run()
	if v1 != v2 {
		t.Fatalf("non-deterministic decision: %q vs %q", v1, v2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("non-deterministic rounds: %v vs %v", r1, r2)
		}
	}
}

func TestConsensusDelayOnlySlowsButDecides(t *testing.T) {
	c := New(Options{
		N:    5,
		Seed: 6,
		Link: netsim.LinkParams{
			DelayBase: 40 * msX, JitterMean: 10 * msX, JitterStd: 10 * msX,
		},
		HBInterval: 100 * msX,
		Factory: func(string) detector.Detector {
			return detector.NewChen(20, 100*msX, 400*msX)
		},
	})
	proposals := []string{"a", "b", "c", "d", "e"}
	proposeAll(c, proposals...)
	if !c.Run(60 * clock.Second) {
		t.Fatal("consensus did not terminate on a slow WAN")
	}
	assertAgreementAndValidity(t, c, proposals)
}

func TestConsensusTooFewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N=2 did not panic")
		}
	}()
	New(Options{N: 2})
}

func TestConsensusQuorumHelpers(t *testing.T) {
	if majority(5) != 3 || majority(4) != 3 || majority(7) != 4 {
		t.Fatal("majority wrong")
	}
	if coord(0, 5) != 0 || coord(7, 5) != 2 {
		t.Fatal("coord wrong")
	}
}

func TestConsensusMonitorIntegration(t *testing.T) {
	// After a crash + run, the survivors' monitors classify the dead
	// process as suspected/offline, proving the FD layer (not a timeout
	// hack) drove round advancement.
	c := New(Options{N: 5, Seed: 7, StartDelay: 3 * clock.Second})
	proposeAll(c, "a", "b", "c", "d", "e")
	c.CrashAt(0, clock.Second)
	c.Run(60 * clock.Second)
	now := c.Clk.Now()
	st, ok := c.Procs[1].mon.StatusOf("p0", now)
	if !ok || st < registry.StatusSuspected {
		t.Fatalf("survivor's monitor sees p0 as %v (ok=%v)", st, ok)
	}
}

func TestConsensusMajorityCrashNoTermination(t *testing.T) {
	// With a majority dead (3 of 5), consensus must NOT terminate — and
	// crucially must not violate agreement while stalled. This is the
	// safety/liveness split of the FD contract: an unreliable detector
	// can only cost liveness.
	c := New(Options{N: 5, Seed: 12, StartDelay: 3 * clock.Second})
	proposeAll(c, "a", "b", "c", "d", "e")
	c.CrashAt(0, clock.Second)
	c.CrashAt(1, clock.Second)
	c.CrashAt(2, clock.Second)
	if c.Run(30 * clock.Second) {
		t.Fatal("consensus terminated without a live majority")
	}
	if _, err := c.Agreement(); err != nil {
		t.Fatalf("agreement violated while stalled: %v", err)
	}
}

func TestConsensusLargerClusterManyCrashes(t *testing.T) {
	// n=9 tolerates 4 crashes (majority 5).
	c := New(Options{N: 9, Seed: 13, StartDelay: 3 * clock.Second})
	var proposals []string
	for i := 0; i < 9; i++ {
		proposals = append(proposals, fmt.Sprintf("w%d", i))
	}
	proposeAll(c, proposals...)
	for i := 0; i < 4; i++ {
		c.CrashAt(i, clock.Second)
	}
	if !c.Run(180 * clock.Second) {
		t.Fatal("9-process consensus did not survive 4 crashes")
	}
	assertAgreementAndValidity(t, c, proposals)
}

func TestConsensusUnanimousProposal(t *testing.T) {
	// Validity corner: when everyone proposes the same value, that value
	// is the only possible decision.
	c := New(Options{N: 5, Seed: 14})
	proposeAll(c, "only", "only", "only", "only", "only")
	if !c.Run(30 * clock.Second) {
		t.Fatal("did not terminate")
	}
	v, err := c.Agreement()
	if err != nil || v != "only" {
		t.Fatalf("decided %q, %v", v, err)
	}
}

func TestConsensusLateCrashAfterDecision(t *testing.T) {
	// A crash after the decision spreads must not disturb anything.
	c := New(Options{N: 5, Seed: 15})
	proposeAll(c, "a", "b", "c", "d", "e")
	if !c.Run(30 * clock.Second) {
		t.Fatal("did not terminate")
	}
	v1, _ := c.Agreement()
	c.Crash(2)
	c.Run(clock.Second) // extra spin
	v2, err := c.Agreement()
	if err != nil || v1 != v2 {
		t.Fatalf("post-decision crash changed outcome: %q vs %q (%v)", v1, v2, err)
	}
}

// wan is a slow link with heavy tails: 40 ms + 10±10 ms, and one message
// in 20 delayed by a further 400 ms on average. Tails reorder proposals
// and acknowledgements across rounds, which is what exposes a lock that
// does not outrank the initial estimates.
var wan = netsim.LinkParams{
	DelayBase: 40 * msX, JitterMean: 10 * msX, JitterStd: 10 * msX,
	TailProb: 0.05, TailScale: 400 * msX,
}

// TestConsensusRoundZeroLock: with three correct processes on wan, p0
// decides "a" in round 0 after p1 adopted it, while a tail holds p1's
// acknowledgement back. Round 1's coordinator must then propose "a" too:
// the round-0 lock must outrank every initial estimate. With initial
// estimates stamped ts 0, the lock tied with them and p1 decided "b".
// Kills the mutant `p.ts = -1` → `p.ts = 0` in Propose.
func TestConsensusRoundZeroLock(t *testing.T) {
	c := New(Options{N: 3, Seed: 19, StartDelay: 3 * clock.Second, Link: wan})
	proposals := []string{"a", "b", "c"}
	proposeAll(c, proposals...)
	if !c.Run(120 * clock.Second) {
		t.Fatal("consensus did not terminate")
	}
	assertAgreementAndValidity(t, c, proposals)
}

// Links of the safety matrix besides wan: the default 2 ms LAN, and a
// jittery one whose delay spread (5 ms + 20±30 ms) dwarfs its floor.
var (
	lan     = netsim.LinkParams{}
	jittery = netsim.LinkParams{DelayBase: 5 * msX, JitterMean: 20 * msX, JitterStd: 30 * msX}
)

// matrixDetectors are the detectors the safety matrix runs under, for
// 50 ms heartbeats. Safety must not depend on any of them.
var matrixDetectors = map[string]registry.Factory{
	"chen":  nil, // Options' default: Chen with a 4-interval margin
	"chen0": func(string) detector.Detector { return detector.NewChen(20, 50*msX, 0) },
	"phi":   func(string) detector.Detector { return detector.NewPhi(20, 8, 10*msX) },
	"bertier": func(string) detector.Detector {
		return detector.NewBertier(20, 50*msX, detector.DefaultBertierParams())
	},
	"sfd": func(string) detector.Detector {
		return core.New(core.Config{WindowSize: 20, Interval: 50 * msX, InitialMargin: 200 * msX})
	},
}

// testRun runs n processes under detector det on link for seeds 1..seeds,
// crashing processes 0..f−1 (the first f coordinators) at crashAt, and
// asserts agreement and validity on every seed. The protocol starts at
// 3 s, so a crash before then leaves a silent peer and one after it
// strikes mid-round. Termination is not asserted: safety must hold
// whether or not a run decides within maxTime.
func testRun(t *testing.T, n, f int, det string, link netsim.LinkParams, crashAt clock.Duration, seeds int, maxTime clock.Duration) {
	t.Helper()
	factory, ok := matrixDetectors[det]
	if !ok {
		t.Fatalf("unknown detector %q", det)
	}
	proposals := make([]string, n)
	for i := range proposals {
		proposals[i] = fmt.Sprintf("v%d", i)
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		c := New(Options{N: n, Seed: seed, StartDelay: 3 * clock.Second, Link: link, Factory: factory})
		proposeAll(c, proposals...)
		for i := 0; i < f; i++ {
			c.CrashAt(i, crashAt)
		}
		c.Run(maxTime)
		v, err := c.Agreement()
		if err != nil {
			t.Fatalf("%d of %d crashed at %v, %s: seed %d: %v", f, n, crashAt, det, seed, err)
		}
		if v != "" && !slices.Contains(proposals, v) {
			t.Fatalf("%d of %d crashed at %v, %s: seed %d decided %q, not a proposal", f, n, crashAt, det, seed, v)
		}
	}
}

// TestConsensusSafetyMatrix holds agreement and validity from the trivial
// case up to n = 21 with f = 10 crashed, across detectors, links and
// crash times. Rows marked * broke agreement while initial estimates were
// stamped ts 0 (the seed in brackets); the rest guard the fix's breadth.
func TestConsensusSafetyMatrix(t *testing.T) {
	const s = clock.Second
	testRun(t, 3, 0, "chen", lan, 0, 10, 60*s)           // 3 of 3, no crash, LAN
	testRun(t, 3, 1, "chen", lan, s, 10, 60*s)           // one silent from the start
	testRun(t, 3, 0, "phi", wan, 0, 20, 60*s)            // * [19]
	testRun(t, 3, 1, "sfd", jittery, 3100*msX, 10, 60*s) // * [4] crash mid-round
	testRun(t, 4, 0, "chen0", jittery, 0, 15, 60*s)      // * [14] zero margin
	testRun(t, 5, 0, "bertier", wan, 0, 20, 60*s)        // * [19]
	testRun(t, 5, 2, "phi", jittery, 3100*msX, 10, 60*s) // * [10] f = 2 mid-round
	testRun(t, 7, 3, "chen", lan, s, 3, 60*s)            // standard f = 3
	testRun(t, 9, 4, "sfd", lan, s, 2, 60*s)             // standard f = 4
	testRun(t, 21, 10, "chen", lan, s, 1, 60*s)          // standard f = 10
}
