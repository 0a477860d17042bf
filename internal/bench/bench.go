// Package bench is the experiment harness: one registered experiment per
// table and figure in the paper's evaluation (§V), each regenerating the
// corresponding rows or curve series from synthetic traces calibrated to
// Table II. cmd/sfdbench is its CLI; the repository-root benchmark file
// drives the same experiments under `go test -bench`.
package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/qos"
	"repro/internal/trace"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Heartbeats per trace; 0 uses trace.DefaultCount. Full overrides
	// with the paper's per-environment counts (minutes of CPU).
	Heartbeats int
	Full       bool
	// SweepPoints is the number of parameter values per curve (default
	// 24; the paper plots "plenty of points").
	SweepPoints int
	// WindowSize overrides WS (default 1000, the paper's setting).
	WindowSize int
}

func (c Config) withDefaults() Config {
	if c.Heartbeats <= 0 {
		c.Heartbeats = trace.DefaultCount
	}
	if c.SweepPoints <= 0 {
		c.SweepPoints = 24
	}
	if c.WindowSize <= 0 {
		c.WindowSize = detector.DefaultWindowSize
	}
	return c
}

// Experiment is one reproducible artefact of the paper.
type Experiment struct {
	ID    string // e.g. "fig6"
	Title string
	Paper string // what the paper reports, for EXPERIMENTS.md context
	Run   func(cfg Config, w io.Writer) error
}

var experiments = map[string]Experiment{}

func register(e Experiment) { experiments[e.ID] = e }

// Get returns an experiment by ID.
func Get(id string) (Experiment, bool) {
	e, ok := experiments[id]
	return e, ok
}

// All returns every experiment in a stable order.
func All() []Experiment {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, experiments[id])
	}
	return out
}

// MakeTrace generates the named WAN environment at the configured scale.
func MakeTrace(cfg Config, env string) (*trace.Trace, error) {
	gp, err := trace.Preset(env)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	gp.Count = cfg.Heartbeats
	if cfg.Full {
		gp.Count = trace.PaperCounts[env]
	}
	return trace.Collect(gp.Meta, trace.NewGenerator(gp)), nil
}

// FigureCurves runs the paper's four-detector comparison over one trace:
// Chen's α sweep, φ's Φ sweep, Bertier's single point, and SFD's SM₁
// sweep with the given QoS targets. Parameters follow §V: α ∈ [0, 10000]
// ms, Φ ∈ [0.5, 16], Bertier at its published constants, SM₁ rising
// through a list with SFD's feedback active.
func FigureCurves(cfg Config, tr *trace.Trace, targets core.Targets) []qos.Curve {
	cfg = cfg.withDefaults()
	ws := cfg.WindowSize
	n := cfg.SweepPoints

	alphaMS := append([]float64{0}, qos.LogSpace(1, 10000, n-1)...)
	phiThresh := qos.LinSpace(0.5, detector.PhiMaxThreshold, n)
	sm1MS := append([]float64{0}, qos.LogSpace(10, 5000, n-1)...)

	chen := qos.Sweep(tr, "Chen FD", func(a float64) detector.Detector {
		return detector.NewChen(ws, 0, clock.Duration(a*float64(clock.Millisecond)))
	}, alphaMS)

	phi := qos.Sweep(tr, "phi FD", func(p float64) detector.Detector {
		return detector.NewPhi(ws, p, 0)
	}, phiThresh)

	bertier := qos.Sweep(tr, "Bertier FD", func(float64) detector.Detector {
		return detector.NewBertier(ws, 0, detector.DefaultBertierParams())
	}, []float64{0})

	sfd := qos.Sweep(tr, "SFD", func(sm1 float64) detector.Detector {
		return core.New(core.Config{
			WindowSize:     ws,
			InitialMargin:  clock.Duration(sm1 * float64(clock.Millisecond)),
			Alpha:          100 * clock.Millisecond,
			Beta:           0.5,
			SlotHeartbeats: 500,
			Targets:        targets,
		})
	}, sm1MS)

	return []qos.Curve{sfd, chen, bertier, phi}
}

// DefaultTargets returns the QoS requirement used for the SFD curves,
// matching the band the paper's SFD occupies in Fig. 6/9 (TD between
// 0.10 s and ≈0.9 s with QAP ≥ 99.5%).
func DefaultTargets() core.Targets {
	return core.Targets{MaxTD: 900 * clock.Millisecond, MaxMR: 0.35, MinQAP: 0.994}
}

// writeCurves renders each curve's table plus a combined scatter.
func writeCurves(w io.Writer, curves []qos.Curve, yAxis string) {
	for _, c := range curves {
		fmt.Fprintln(w, c.Table())
	}
	fmt.Fprintln(w, ScatterPlot(curves, yAxis))
}
