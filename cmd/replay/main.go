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
	"errors"
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

// config is every replay flag: bind registers them and validate checks
// them, resolving -sweep, before any work.
type config struct {
	env, in string
	n       int
	fd      string
	ws      int
	alpha   time.Duration
	phi     float64
	fixed   time.Duration
	sm1     time.Duration
	maxTD   time.Duration
	maxMR   float64
	minQA   float64
	sweep   string
	crash   uint64

	params []float64 // -sweep resolved by validate; nil without it
}

func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.env, "env", "", "generate this WAN preset instead of reading a file")
	fs.StringVar(&c.in, "in", "", "binary trace file to replay")
	fs.IntVar(&c.n, "n", trace.DefaultCount, "heartbeats when generating")
	fs.StringVar(&c.fd, "fd", "sfd", "detector: sfd, chen, bertier, phi, fixed")
	fs.IntVar(&c.ws, "ws", detector.DefaultWindowSize, "window size")
	fs.DurationVar(&c.alpha, "alpha", 100*time.Millisecond, "chen: safety margin α")
	fs.Float64Var(&c.phi, "phi", 8, "phi: threshold Φ")
	fs.DurationVar(&c.fixed, "timeout", time.Second, "fixed: timeout")
	fs.DurationVar(&c.sm1, "sm1", 100*time.Millisecond, "sfd: initial margin SM₁")
	fs.DurationVar(&c.maxTD, "maxtd", 900*time.Millisecond, "sfd: target max detection time")
	fs.Float64Var(&c.maxMR, "maxmr", 0.35, "sfd: target max mistake rate (1/s)")
	fs.Float64Var(&c.minQA, "minqap", 0.994, "sfd: target min query accuracy probability")
	fs.StringVar(&c.sweep, "sweep", "", "comma-separated parameter list (ms for chen/sfd/fixed, raw for phi)")
	fs.Uint64Var(&c.crash, "crash", 0, "inject a crash at this sequence number")
}

// validate rejects flag values replay cannot run with; main turns its
// error into exit status 2. -n is read only when generating (-env
// without -in).
func (c *config) validate() error {
	switch {
	case c.in == "" && c.env == "":
		return errors.New("need -env or -in")
	case c.in == "":
		if _, err := trace.Preset(c.env); err != nil {
			return err
		}
		if c.n < 1 {
			return fmt.Errorf("-n must be at least 1 (got %d)", c.n)
		}
	}
	switch c.fd {
	case "sfd", "chen", "bertier", "phi", "fixed":
	default:
		return fmt.Errorf("unknown detector %q", c.fd)
	}
	// The detectors fall back to a 1000-sample window on these.
	if c.ws < 1 {
		return fmt.Errorf("-ws must be at least 1 (got %d)", c.ws)
	}
	if c.sweep != "" {
		for _, tok := range strings.Split(c.sweep, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return fmt.Errorf("bad sweep value %q: %v", tok, err)
			}
			c.params = append(c.params, v)
		}
	}
	return nil
}

func main() {
	var c config
	c.bind(flag.CommandLine)
	flag.Parse()
	if err := c.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		os.Exit(2)
	}

	tr, err := loadTrace(c.env, c.in, c.n)
	if err != nil {
		fatal(err)
	}

	targets := core.Targets{MaxTD: c.maxTD, MaxMR: c.maxMR, MinQAP: c.minQA}
	factory := func(param float64) detector.Detector {
		d := clock.Duration(param * float64(time.Millisecond))
		switch c.fd {
		case "chen":
			return detector.NewChen(c.ws, 0, d)
		case "bertier":
			return detector.NewBertier(c.ws, 0, detector.DefaultBertierParams())
		case "phi":
			return detector.NewPhi(c.ws, param, 0)
		case "fixed":
			return detector.NewFixed(d, c.ws)
		default: // "sfd"; validate admits no other name
			// HistoryCap: keep every slot, so "adjustments" below counts them all.
			return core.New(core.Config{WindowSize: c.ws, InitialMargin: d, Targets: targets, HistoryCap: len(tr.Records)})
		}
	}

	if c.params != nil {
		curve := qos.Sweep(tr, c.fd, factory, c.params)
		fmt.Print(curve.Table())
		return
	}

	// Single point: pick the parameter for the chosen detector.
	var param float64
	switch c.fd {
	case "chen":
		param = float64(c.alpha) / float64(time.Millisecond)
	case "phi":
		param = c.phi
	case "fixed":
		param = float64(c.fixed) / float64(time.Millisecond)
	case "sfd":
		param = float64(c.sm1) / float64(time.Millisecond)
	}
	det := factory(param)

	if c.crash > 0 {
		out := qos.ReplayWithCrash(tr.Stream(), det, c.crash)
		fmt.Println(out.Result)
		fmt.Printf("crash injected at seq %d (t=%.3fs): detected after %v\n",
			c.crash, out.CrashAt.Seconds(), out.Latency)
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

// loadTrace reads the -in file or, without one, generates n heartbeats
// of the -env preset (validate has checked both).
func loadTrace(env, in string, n int) (*trace.Trace, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	}
	gp, err := trace.Preset(env)
	if err != nil {
		return nil, err
	}
	gp.Count = n
	return trace.Collect(gp.Meta, trace.NewGenerator(gp)), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "replay: %v\n", err)
	os.Exit(1)
}
