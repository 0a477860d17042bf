package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// childResult is what a run in a process of its own printed last: the
// summary object's info block and the driver line.
type childResult struct {
	driverLine
	Info map[string]float64
}

// child runs one workload in a fresh process (a run's heap and caches
// must not be the previous run's) and returns what it reported.
func child(workload string, seed int64, seconds int, traced bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", t)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	// The last two lines are the summary object and the driver line.
	var summary, last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			summary, last = last, append([]byte(nil), sc.Bytes()...)
		}
	}
	var res childResult
	if err := json.Unmarshal(last, &res.driverLine); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v, exit: %v)", workload, seed, err, runErr)
	}
	var sum struct {
		Info map[string]float64 `json:"info"`
	}
	if err := json.Unmarshal(summary, &sum); err != nil {
		return nil, fmt.Errorf("%s seed %d: no summary object: %v", workload, seed, err)
	}
	res.Info = sum.Info
	if runErr != nil {
		return &res, fmt.Errorf("%s seed %d: %v", workload, seed, runErr)
	}
	return &res, nil
}

// runAll prints every metric of every workload: an untraced run for the
// end-to-end metrics, a traced run for the per-layer ones, and the
// difference in CPU per heartbeat between the two as tracing overhead.
func runAll(seed int64, seconds int) error {
	for _, w := range workloads {
		plain, err := child(w, seed, seconds, false)
		if err != nil {
			return err
		}
		traced, err := child(w, seed, seconds, true)
		if err != nil {
			return err
		}
		for _, d := range endToEndDefs {
			fmt.Printf("%-44s %14.4f %s\n", w+"/"+d.Name, plain.Metrics[d.Name].Value, d.Unit)
		}
		for _, d := range perLayerDefs {
			fmt.Printf("%-44s %14.4f %s\n", w+"/"+d.Name, traced.Metrics[d.Name].Value, d.Unit)
		}
		base := plain.Info["cpu_us_per_hb"]
		fmt.Printf("%-44s %14.4f us (untraced run)\n", w+"/cpu_us_per_hb", base)
		fmt.Printf("%-44s %14.2f %%\n", w+"/trace_overhead_pct", (traced.Metrics["cpu_us_per_hb"].Value-base)/base*100)
		fmt.Printf("%-44s ops %d failed_ops %d correct %v\n", w, plain.Attempted, plain.Failed, plain.Correct && traced.Correct)
	}
	fmt.Println(`{"claim": null}`)
	return nil
}

// agreeRuns is the number of runs in each of the noise protocol's two sets.
const agreeRuns = 5

// replaySimulated are the replay workload's outputs in simulated time:
// for one seed they must repeat to the bit.
var replaySimulated = []string{"verdict_lag_p50_ms", "verdict_lag_p90_ms", "detect_p50_ms"}

// runAgree is the noise protocol: two sets of runs of every workload,
// interleaved so drift hits both alike. It fails unless, for every
// workload and end-to-end metric, the two sets' medians agree within the
// metric's bound and each set's interquartile spread stays inside it
// (setup_s is exempt from the spread rule, as in the driver's own check).
// A live run has a seed of its own. A replay run shares its seed with its
// twin in the other set, and the twins' simulated-time outputs must be
// the same number, not merely close.
func runAgree(seconds int, seed int64) error {
	type key struct{ w, m string }
	vals := [2]map[key][]float64{{}, {}}
	for i := 0; i < agreeRuns; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				s := seed + int64(2*i+set)
				if w == "replay" {
					s = seed + int64(i)
				}
				d, err := child(w, s, seconds, false)
				if err != nil {
					return err
				}
				if !d.Correct || d.Failed != 0 {
					fmt.Printf("note: %s seed %d: correct=%v failed=%d of %d\n", w, s, d.Correct, d.Failed, d.Attempted)
				}
				for _, def := range endToEndDefs {
					k := key{w, def.Name}
					vals[set][k] = append(vals[set][k], d.Metrics[def.Name].Value)
				}
			}
		}
	}
	ok := true
	fmt.Printf("%-36s %12s %12s %8s %8s %8s %7s\n", "workload/metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound")
	for _, w := range workloads {
		for _, def := range endToEndDefs {
			k := key{w, def.Name}
			a, b := vals[0][k], vals[1][k]
			ma, mb := median(a), median(b)
			diff := math.Abs(mb-ma) / ma
			sa, sb := spread(a), spread(b)
			bound := regressionBound[def.Name]
			verdict := ""
			if diff > bound || (def.Name != "setup_s" && (sa > bound || sb > bound)) {
				verdict, ok = "  OUTSIDE BOUND", false
			}
			fmt.Printf("%-36s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %6.1f%%%s\n",
				w+"/"+def.Name, ma, mb, diff*100, sa*100, sb*100, bound*100, verdict)
		}
	}
	for _, m := range replaySimulated {
		a, b := vals[0][key{"replay", m}], vals[1][key{"replay", m}]
		same := slices.Equal(a, b)
		if !same {
			ok = false
		}
		fmt.Printf("replay/%s identical in both sets, seed for seed: %v\n", m, same)
		if !same {
			fmt.Printf("  set A %v\n  set B %v\n", a, b)
		}
	}
	fmt.Println(`{"claim": null}`)
	if !ok {
		return fmt.Errorf("the two sets do not agree within the benchmark's bounds")
	}
	return nil
}

// printGolden regenerates replay_golden.go's table.
func printGolden() error {
	fmt.Println("var goldenQoS = map[string]goldenEntry{")
	for _, name := range replayPresets {
		tr, err := genTrace(name, replayTraceLen)
		if err != nil {
			return err
		}
		for _, det := range replayDetectors {
			q := replayQoS(tr.tr, det)
			fmt.Printf("\t%q: {TDns: %d, MR: %s, QAP: %s},\n", name+"/"+det, q.TDns,
				strconv.FormatFloat(q.MR, 'g', -1, 64), strconv.FormatFloat(q.QAP, 'g', -1, 64))
		}
	}
	fmt.Println("}")
	return nil
}
