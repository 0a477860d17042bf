// tracegen emits synthetic WAN heartbeat traces calibrated to the
// paper's Table II, in the repository's binary format or CSV.
//
// Usage:
//
//	tracegen -env WAN-1 -n 100000 -o wan1.hbtr
//	tracegen -env WAN-JPCH -csv -o jpch.csv
//	tracegen -list
//	tracegen -env WAN-2 -n 50000 -stats       # print Table II row only
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

// config is every tracegen flag: bind registers them and validate checks
// them before any work.
type config struct {
	env   string
	n     int
	seed  int64
	out   string
	csv   bool
	stats bool
	list  bool
	full  bool
}

func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.env, "env", "WAN-1", "WAN environment preset")
	fs.IntVar(&c.n, "n", trace.DefaultCount, "heartbeats to generate")
	fs.Int64Var(&c.seed, "seed", 0, "override the preset PRNG seed (0 keeps default)")
	fs.StringVar(&c.out, "o", "", "output file (default stdout)")
	fs.BoolVar(&c.csv, "csv", false, "write CSV instead of binary")
	fs.BoolVar(&c.stats, "stats", false, "print statistics only, no trace output")
	fs.BoolVar(&c.list, "list", false, "list presets and exit")
	fs.BoolVar(&c.full, "full", false, "use the paper's full heartbeat count for the environment")
}

// validate rejects flag values tracegen cannot run with; main turns its
// error into exit status 2. -list reads no other flag, and -full
// overrides -n.
func (c *config) validate() error {
	if c.list {
		return nil
	}
	if _, err := trace.Preset(c.env); err != nil {
		return err
	}
	if !c.full && c.n < 1 {
		return fmt.Errorf("-n must be at least 1 (got %d)", c.n)
	}
	return nil
}

func main() {
	var c config
	c.bind(flag.CommandLine)
	flag.Parse()
	if err := c.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(2)
	}

	if c.list {
		for _, name := range trace.PresetNames() {
			gp, _ := trace.Preset(name)
			fmt.Printf("%-9s %s (%s) → %s (%s), Δt=%v, RTT=%v, paper N=%d\n",
				name, gp.Meta.Sender, gp.Meta.SenderHost, gp.Meta.Receiver, gp.Meta.ReceiverHost,
				gp.Meta.Interval, gp.Meta.RTT, trace.PaperCounts[name])
		}
		return
	}

	gp, _ := trace.Preset(c.env)
	gp.Count = c.n
	if c.full {
		gp.Count = trace.PaperCounts[c.env]
	}
	if c.seed != 0 {
		gp.Seed = c.seed
	}

	if c.stats {
		st := trace.Analyze(c.env, trace.NewGenerator(gp))
		fmt.Println(trace.TableHeader())
		fmt.Println(st.TableRow())
		fmt.Printf("delay: mean=%.3fms std=%.3fms min=%.3fms max=%.3fms\n",
			st.DelayMeanMS, st.DelayStdMS, st.DelayMinMS, st.DelayMaxMS)
		fmt.Printf("loss bursts: n=%d max=%d mean=%.1f\n", st.LossBursts, st.MaxBurstLen, st.MeanBurstLen)
		return
	}

	w := os.Stdout
	if c.out != "" {
		f, err := os.Create(c.out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	var (
		written int
		err     error
	)
	if c.csv {
		tr := trace.Collect(gp.Meta, trace.NewGenerator(gp))
		err = trace.WriteCSV(w, tr)
		written = tr.Len()
	} else {
		// Binary output streams in constant memory, so even the paper's
		// ≈7M-heartbeat counts (-full) never materialize a trace.
		written, err = trace.WriteStream(w, gp.Meta, trace.NewGenerator(gp))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d heartbeats (%s)\n", written, c.env)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
	os.Exit(1)
}
