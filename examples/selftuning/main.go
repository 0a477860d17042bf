// Selftuning: watch the feedback loop of §IV work. An SFD starts with a
// hopelessly conservative 3-second safety margin on a WAN-1-like trace;
// slot by slot, the Algorithm-1 feedback shrinks SM until the measured
// QoS enters the target box, then holds it there. A second run asks for
// the impossible and receives the paper's "can not satisfy" response.
// A third run shows the *general* method retrofitting Chen FD.
package main

import (
	"fmt"
	"time"

	sfd "repro"
)

func main() {
	gp, err := sfd.TracePreset("WAN-1")
	if err != nil {
		panic(err)
	}
	gp.Count = 150_000
	tr := sfd.CollectTrace(gp.Meta, sfd.NewTraceGenerator(gp))

	targets := sfd.Targets{MaxTD: 900 * time.Millisecond, MaxMR: 0.35, MinQAP: 0.994}

	// --- Run 1: feasible targets, bad initial parameter -------------
	det := sfd.NewSFD(sfd.Config{
		InitialMargin:  3 * time.Second, // absurdly conservative SM₁
		SlotHeartbeats: 500,
		Targets:        targets,
		HistoryCap:     gp.Count, // keep every slot: the trajectory below samples them all
	})
	res := sfd.Replay(tr.Stream(), det)

	fmt.Printf("run 1: SM₁ = 3s, targets %v\n", targets)
	fmt.Printf("  final state:  %v\n", det.State())
	fmt.Printf("  final margin: %v\n", det.Margin())
	fmt.Printf("  measured:     %s\n", res)
	fmt.Println("  margin trajectory (every ~20th adjustment slot):")
	hist := det.History()
	step := len(hist)/15 + 1
	for i := 0; i < len(hist); i += step {
		a := hist[i]
		bar := int(a.Margin / (50 * time.Millisecond))
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("    slot %4d %v %-9s %s\n", a.Slot, a.Margin, a.Verdict, bars(bar))
	}

	// --- Run 2: infeasible targets ----------------------------------
	impossible := sfd.Targets{MaxTD: time.Millisecond, MaxMR: 1e-9, MinQAP: 0.9999999}
	bad := sfd.NewSFD(sfd.Config{
		SlotHeartbeats:   500,
		Targets:          impossible,
		HaltOnInfeasible: true,
	})
	sfd.Replay(tr.Stream(), bad)
	fmt.Printf("\nrun 2: impossible targets %v\n", impossible)
	fmt.Printf("  state:    %v\n", bad.State())
	fmt.Printf("  response: %s\n", bad.Response())

	// --- Run 3: the general method driving Chen FD ------------------
	chen := sfd.NewChen(1000, 0, 2*time.Second)
	tuner := sfd.NewSelfTuner(sfd.TunableChen{Chen: chen}, sfd.TunerOptions{
		SlotHeartbeats: 500,
		Targets:        targets,
	})
	sfd.Replay(tr.Stream(), tuner)
	fmt.Printf("\nrun 3: general method wrapping Chen FD (α₁ = 2s)\n")
	fmt.Printf("  tuned α:  %v\n", chen.Alpha())
	fmt.Printf("  state:    %v\n", tuner.State())
}

func bars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
