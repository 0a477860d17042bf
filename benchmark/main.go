// Command benchmark is the repository's benchmark: it assembles the
// failure-detection system the way the daemons do, drives it with a
// seeded open-loop heartbeat generator over loopback UDP, injects faults
// whose instants it knows, reads verdicts the way an operator would, and
// reports how long verdicts took, what a heartbeat cost and what a
// stream holds — or, traced, where in the layers that went.
//
//	go run -C benchmark . -workload steady -seed 1 -seconds 15 -trace 0
//	go run -C benchmark . -all            # every workload, untraced then traced
//	go run -C benchmark . -agree          # the noise protocol
//
// See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
)

var workloads = []string{"steady", "storm", "fleet", "replay"}

// defaultSeconds is the timed phase's length when --seconds is not given;
// BENCHMARK.json's run_seconds says the same.
const defaultSeconds = 12

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: steady, storm, fleet or replay")
		seed     = flag.Int64("seed", 1, "seed for the workload's inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the timed phase")
		traced   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, and print the tracing overhead")
		agree    = flag.Bool("agree", false, "noise protocol: two interleaved sets of runs of every workload must agree within each metric's bound")
		golden   = flag.Bool("print-golden", false, "print the replay workload's golden table as Go source and exit")
	)
	if os.Getenv(roleEnv) == "generator" {
		generatorMain()
		return
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	switch {
	case *golden:
		if err := printGolden(); err != nil {
			fatal(err)
		}
	case *agree:
		if err := runAgree(*seconds, *seed); err != nil {
			fatal(err)
		}
	case *all:
		if err := runAll(*seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		if *seconds < 1 || (*traced != 0 && *traced != 1) {
			fatal(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
		}
		rep, err := runWorkload(*workload, *seed, *seconds, *traced == 1, 1)
		if err != nil {
			fatal(err)
		}
		if err := rep.print(os.Stdout, readEnv()); err != nil {
			fatal(err)
		}
		if !rep.correct() {
			os.Exit(1)
		}
	}
}

// runWorkload runs one workload in this process. scale shrinks every
// population for the tests' miniatures; the command line always runs at 1,
// since numbers taken at any other scale compare with nothing.
func runWorkload(workload string, seed int64, seconds int, traced bool, scale float64) (*report, error) {
	switch workload {
	case "steady", "storm", "fleet":
		return runLive(workload, seed, seconds, traced, scale)
	case "replay":
		return runReplay(seed, seconds, traced, scale)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
