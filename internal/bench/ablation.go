package bench

import (
	"fmt"
	"io"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/qos"
)

// Ablation experiments for the design choices DESIGN.md calls out. These
// have no direct counterpart in the paper's figures; they justify the
// reproduction's interpretation decisions and quantify SFD's own knobs.
func init() {
	register(Experiment{
		ID:    "ablation-gapfill",
		Title: "Ablation — §IV-C time-series gap filling on a bursty-loss WAN",
		Paper: "SFD fills delay samples for lost heartbeats with d_i = Δt·n_ag + d_{i−1}.",
		Run:   runAblationGapFill,
	})
	register(Experiment{
		ID:    "ablation-slot",
		Title: "Ablation — feedback slot length vs convergence",
		Paper: "\"in a specific time slot, we adjust the parameters of SFD only one time\" (§IV-A); the slot length is unspecified.",
		Run:   runAblationSlot,
	})
	register(Experiment{
		ID:    "ablation-step",
		Title: "Ablation — adjustment step β·α vs convergence and stability",
		Paper: "\"The value β is for the adjusting rate, and it could be dynamically chosen by users\" (§IV-B).",
		Run:   runAblationStep,
	})
	register(Experiment{
		ID:    "ablation-signs",
		Title: "Ablation — Algorithm 1 printed signs vs the corrected rule",
		Paper: "Lines 11/13 print Sat=+β for slow TD and −β for bad accuracy; the WAN-1 walkthrough implies the opposite (DESIGN.md §4).",
		Run:   runAblationSigns,
	})
}

func runAblationGapFill(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	// WAN-2: 5% loss in bursts — where gap filling matters most.
	tr, err := MakeTrace(cfg, "WAN-2")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %10s %14s %12s %10s\n", "gapfill", "TD[s]", "MR[1/s]", "QAP[%]", "mistakes")
	for _, fill := range []bool{false, true} {
		det := core.New(core.Config{
			WindowSize:    cfg.WindowSize,
			InitialMargin: 200 * clock.Millisecond,
			FillGaps:      fill,
			Targets:       DefaultTargets(),
		})
		r := qos.Replay(tr.Stream(), det)
		fmt.Fprintf(w, "%-10v %10.4f %14.6g %12.5f %10d\n",
			fill, r.TDAvg.Seconds(), r.MR, r.QAP*100, r.Mistakes)
	}
	fmt.Fprintln(w, "expectation: filling keeps the estimation window dense through bursts,")
	fmt.Fprintln(w, "trading slightly inflated freshness points for fewer loss-induced mistakes.")
	return nil
}

func runAblationSlot(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	tr, err := MakeTrace(cfg, "WAN-1")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %14s %12s %16s %10s\n", "slot", "final-SM", "state", "slots-to-stable", "TD[s]")
	for _, slot := range []int{50, 100, 200, 500, 1000, 2000} {
		det := core.New(core.Config{
			WindowSize:     cfg.WindowSize,
			InitialMargin:  3 * clock.Second,
			SlotHeartbeats: slot,
			Targets:        DefaultTargets(),
			HistoryCap:     len(tr.Records), // keep every slot: slotsToStable reads them all
		})
		r := qos.Replay(tr.Stream(), det)
		fmt.Fprintf(w, "%-8d %14v %12v %16d %10.4f\n",
			slot, det.Margin(), det.State(), slotsToStable(det), r.TDAvg.Seconds())
	}
	fmt.Fprintln(w, "expectation: short slots converge in fewer heartbeats but measure noisier QoS;")
	fmt.Fprintln(w, "long slots are stable but spend most of a short trace still tuning.")
	return nil
}

func runAblationStep(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	tr, err := MakeTrace(cfg, "WAN-1")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-9s %14s %12s %16s %12s\n",
		"step(β·α)", "adaptive", "final-SM", "state", "slots-to-stable", "direction-flips")
	for _, stepMS := range []float64{10, 25, 50, 100, 250} {
		for _, adaptive := range []bool{false, true} {
			det := core.New(core.Config{
				WindowSize:     cfg.WindowSize,
				InitialMargin:  3 * clock.Second,
				Alpha:          clock.Duration(2 * stepMS * float64(clock.Millisecond)),
				Beta:           0.5, // step = β·α = stepMS
				SlotHeartbeats: 200,
				Targets:        DefaultTargets(),
				AdaptiveStep:   adaptive,
				HistoryCap:     len(tr.Records), // keep every slot: both columns read them all
			})
			qos.Replay(tr.Stream(), det)
			fmt.Fprintf(w, "%-12.0f %-9v %14v %12v %16d %12d\n",
				stepMS, adaptive, det.Margin(), det.State(), slotsToStable(det), directionFlips(det))
		}
	}
	fmt.Fprintln(w, "expectation: tiny steps converge slowly; huge steps overshoot and oscillate")
	fmt.Fprintln(w, "around the target box (more direction flips); the adaptive step (an")
	fmt.Fprintln(w, "extension the paper leaves to users) damps the large-step oscillation.")
	return nil
}

func runAblationSigns(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	tr, err := MakeTrace(cfg, "WAN-1")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %14s %12s %10s %14s\n", "rule", "final-SM", "state", "TD[s]", "MR[1/s]")
	for _, inverted := range []bool{false, true} {
		det := core.New(core.Config{
			WindowSize:     cfg.WindowSize,
			InitialMargin:  3 * clock.Second, // too slow: correct rule shrinks SM
			SlotHeartbeats: 200,
			Targets:        DefaultTargets(),
			InvertFeedback: inverted,
		})
		r := qos.Replay(tr.Stream(), det)
		rule := "corrected"
		if inverted {
			rule = "as-printed"
		}
		fmt.Fprintf(w, "%-12s %14v %12v %10.4f %14.6g\n",
			rule, det.Margin(), det.State(), r.TDAvg.Seconds(), r.MR)
	}
	fmt.Fprintln(w, "expectation: the as-printed signs push SM to the clamp and never satisfy the")
	fmt.Fprintln(w, "targets, confirming Algorithm 1's listing has the signs transposed (DESIGN.md §4).")
	return nil
}

// slotsToStable counts adjustment slots until the first stable verdict
// (0 when never stable).
func slotsToStable(det *core.SFD) int {
	for _, a := range det.History() {
		if a.Verdict == core.VerdictStable {
			return a.Slot
		}
	}
	return 0
}

// directionFlips counts sign changes in the margin trajectory — an
// oscillation measure for the step-size ablation.
func directionFlips(det *core.SFD) int {
	hist := det.History()
	flips := 0
	prevDir := 0
	for i := 1; i < len(hist); i++ {
		d := 0
		if hist[i].Margin > hist[i-1].Margin {
			d = 1
		} else if hist[i].Margin < hist[i-1].Margin {
			d = -1
		}
		if d != 0 && prevDir != 0 && d != prevDir {
			flips++
		}
		if d != 0 {
			prevDir = d
		}
	}
	return flips
}
