// replay runs a failure detector over a heartbeat trace (a file written
// by tracegen, or a freshly generated preset) and prints its measured
// QoS — the paper's replay-based evaluation for a single parameter point
// or a sweep.
//
// Usage:
//
//	replay -env WAN-1 -fd sfd -sm1 200ms
//	replay -in wan1.hbtr -fd chen -alpha 150ms
//	replay -env WAN-JPCH -fd phi -phi 8
//	replay -env WAN-1 -fd chen -sweep "0,50,100,200,400,800,1600"
//	replay -env WAN-1 -fd sfd -crash 100000   # inject a crash at seq
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/qos"
	"repro/internal/trace"
)

func main() {
	var (
		env   = flag.String("env", "", "generate this WAN preset instead of reading a file")
		in    = flag.String("in", "", "binary trace file to replay")
		n     = flag.Int("n", trace.DefaultCount, "heartbeats when generating")
		fd    = flag.String("fd", "sfd", "detector: sfd, chen, bertier, phi, fixed")
		ws    = flag.Int("ws", detector.DefaultWindowSize, "window size")
		alpha = flag.Duration("alpha", 100*time.Millisecond, "chen: safety margin α")
		phi   = flag.Float64("phi", 8, "phi: threshold Φ")
		fixed = flag.Duration("timeout", time.Second, "fixed: timeout")
		sm1   = flag.Duration("sm1", 100*time.Millisecond, "sfd: initial margin SM₁")
		maxTD = flag.Duration("maxtd", 900*time.Millisecond, "sfd: target max detection time")
		maxMR = flag.Float64("maxmr", 0.35, "sfd: target max mistake rate (1/s)")
		minQA = flag.Float64("minqap", 0.994, "sfd: target min query accuracy probability")
		sweep = flag.String("sweep", "", "comma-separated parameter list (ms for chen/sfd/fixed, raw for phi)")
		crash = flag.Uint64("crash", 0, "inject a crash at this sequence number")
	)
	flag.Parse()

	tr, err := loadTrace(*env, *in, *n)
	if err != nil {
		fatal(err)
	}

	targets := core.Targets{MaxTD: *maxTD, MaxMR: *maxMR, MinQAP: *minQA}
	factory := func(param float64) detector.Detector {
		d := clock.Duration(param * float64(time.Millisecond))
		switch *fd {
		case "chen":
			return detector.NewChen(*ws, 0, d)
		case "bertier":
			return detector.NewBertier(*ws, 0, detector.DefaultBertierParams())
		case "phi":
			return detector.NewPhi(*ws, param, 0)
		case "fixed":
			return detector.NewFixed(d, *ws)
		case "sfd":
			// HistoryCap: keep every slot, so "adjustments" below counts them all.
			return core.New(core.Config{WindowSize: *ws, InitialMargin: d, Targets: targets, HistoryCap: len(tr.Records)})
		default:
			fatal(fmt.Errorf("unknown detector %q", *fd))
			return nil
		}
	}

	if *sweep != "" {
		var params []float64
		for _, tok := range strings.Split(*sweep, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fatal(fmt.Errorf("bad sweep value %q: %v", tok, err))
			}
			params = append(params, v)
		}
		curve := qos.Sweep(tr, *fd, factory, params)
		fmt.Print(curve.Table())
		return
	}

	// Single point: pick the parameter for the chosen detector.
	var param float64
	switch *fd {
	case "chen":
		param = float64(*alpha) / float64(time.Millisecond)
	case "phi":
		param = *phi
	case "fixed":
		param = float64(*fixed) / float64(time.Millisecond)
	case "sfd":
		param = float64(*sm1) / float64(time.Millisecond)
	}
	det := factory(param)

	if *crash > 0 {
		out := qos.ReplayWithCrash(tr.Stream(), det, *crash)
		fmt.Println(out.Result)
		fmt.Printf("crash injected at seq %d (t=%.3fs): detected after %v\n",
			*crash, out.CrashAt.Seconds(), out.Latency)
		return
	}

	res := qos.Replay(tr.Stream(), det)
	fmt.Println(res)
	fmt.Printf("TD min/avg/max: %v / %v / %v\n", res.TDMin, res.TDAvg, res.TDMax)
	fmt.Printf("TM=%v TMR=%v warmup=%d arrivals=%d\n", res.TM, res.TMR, res.Warmup, res.Arrivals)
	if s, ok := det.(*core.SFD); ok {
		fmt.Printf("sfd: state=%v final-SM=%v adjustments=%d\n", s.State(), s.Margin(), len(s.History()))
		fmt.Printf("sfd: %s\n", s.Response())
	}
}

func loadTrace(env, in string, n int) (*trace.Trace, error) {
	switch {
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	case env != "":
		gp, err := trace.Preset(env)
		if err != nil {
			return nil, err
		}
		gp.Count = n
		return trace.Collect(gp.Meta, trace.NewGenerator(gp)), nil
	default:
		return nil, fmt.Errorf("need -env or -in")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "replay: %v\n", err)
	os.Exit(1)
}
