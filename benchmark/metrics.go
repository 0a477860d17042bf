package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metricDef names one metric of the benchmark. The two lists below are
// the benchmark's schema; BENCHMARK.json repeats them (a test keeps the
// two in step) and every run emits exactly one list or the other.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// End-to-end metrics: what an operator of the system sees. The driver
// that runs this benchmark takes one list for all workloads and refuses a
// run that leaves a listed metric out, so every workload reports every one
// of them (README.md says what each means on replay).
var endToEndDefs = []metricDef{
	{"verdict_lag_p50_ms", "ms", "lower"},
	{"verdict_lag_p90_ms", "ms", "lower"},
	{"detect_p50_ms", "ms", "lower"},
	{"heap_bytes_per_stream", "B", "lower"},
	{"setup_s", "s", "lower"},
}

// regressionBound is, per end-to-end metric, the share of its median by
// which two sets of runs may differ before they count as different: the
// noise protocol's threshold here and the driver's in BENCHMARK.json (a
// test keeps the two in step). None is wider than a tenth; a metric that
// cannot hold a tenth is per-layer, as cpu_us_per_hb is.
var regressionBound = map[string]float64{
	"verdict_lag_p50_ms":    0.10,
	"verdict_lag_p90_ms":    0.10,
	"detect_p50_ms":         0.05,
	"heap_bytes_per_stream": 0.03,
	"setup_s":               0.10,
}

// Per-layer metrics, measured on the traced run. Layer = package name.
// The driver wants every one of them from every traced run, so a layer
// that is idle on a workload reports 0 for its live measurements; the
// timed-call probes report the same on every workload.
var perLayerDefs = []metricDef{
	{"cpu_us_per_hb", "us", "lower"},
	{"transport.ingest_wait_p50_us", "us", "lower"},
	{"transport.ingest_wait_p99_us", "us", "lower"},
	{"transport.rx_dropped", "count", "lower"},
	{"transport.ingest_gap", "count", "lower"},
	{"transport.queue_depth_max", "count", "lower"},
	{"transport.pool_misses", "count", "lower"},
	{"transport.send_ns", "ns", "lower"},
	{"heartbeat.decode_ns", "ns", "lower"},
	{"heartbeat.encode_ns", "ns", "lower"},
	{"heartbeat.handle_self_ns", "ns", "lower"},
	{"heartbeat.stale", "count", "lower"},
	{"registry.observe_ns", "ns", "lower"},
	{"registry.rearms_per_hb", "1/hb", "lower"},
	{"registry.wheel_lag_p50_ms", "ms", "lower"},
	{"registry.wheel_lag_p90_ms", "ms", "lower"},
	{"registry.wheel_lag_p99_ms", "ms", "lower"},
	{"registry.foreach_ms", "ms", "lower"},
	{"registry.snapshot_ms", "ms", "lower"},
	{"registry.watch_lag_p50_ms", "ms", "lower"},
	{"registry.watch_lag_p90_ms", "ms", "lower"},
	{"registry.watch_dropped", "count", "lower"},
	{"core.observe_ns", "ns", "lower"},
	{"core.estimator_wait_p50_ms", "ms", "lower"},
	{"core.slots_closed", "count", "higher"},
	{"detector.chen_observe_ns", "ns", "lower"},
	{"detector.bertier_observe_ns", "ns", "lower"},
	{"detector.phi_observe_ns", "ns", "lower"},
	{"window.push_ns", "ns", "lower"},
	{"qos.replay_ns_per_hb", "ns", "lower"},
	{"trace.gen_ns_per_hb", "ns", "lower"},
	{"fanout.match_ns", "ns", "lower"},
	{"bus.delivery_lag_p50_us", "us", "lower"},
	{"bus.delivery_lag_p99_us", "us", "lower"},
	{"bus.dropped", "count", "lower"},
	{"federate.rollup_ms_p50", "ms", "lower"},
	{"federate.rollup_ms_p99", "ms", "lower"},
	{"federate.merge_us", "us", "lower"},
	{"federate.round_us", "us", "lower"},
	{"federate.digest_bytes_per_round", "B", "lower"},
	{"federate.mirror_bytes_per_round", "B", "lower"},
	{"federate.codec_ns_per_digest", "ns", "lower"},
	{"federate.fleet_get_ms", "ms", "lower"},
	{"federate.fleet_lag_p50_ms", "ms", "lower"},
	{"gossip.round_us", "us", "lower"},
	{"gossip.merge_us", "us", "lower"},
	{"gossip.codec_ns_per_digest", "ns", "lower"},
	{"gossip.digest_bytes", "B", "lower"},
	{"persist.save_ms", "ms", "lower"},
	{"persist.encode_ms", "ms", "lower"},
	{"persist.decode_ms", "ms", "lower"},
	{"persist.snapshot_bytes_per_stream", "B", "lower"},
	{"metrics.scrape_ms", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.cpu_us_per_hb", "us", "lower"},
	{"gen.sent", "count", "higher"},
	{"bench.verdict_lag_p99_ms", "ms", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is one run's outcome.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`

	values map[string]float64 // every metric measured, by name
	// Info holds numbers worth printing that are not part of the schema
	// (sample counts, the capacity estimate, …).
	Info map[string]float64 `json:"info"`

	Attempted int64   `json:"ops"`
	Failed    int64   `json:"failed_ops"`
	Checks    []check `json:"checks"`
	// Invalid is set when the run is not a measurement at all (the
	// generator could not keep its schedule): reported, not scored.
	Invalid   string `json:"invalid,omitempty"`
	TraceFile string `json:"trace_file,omitempty"`
}

func newReport(workload string, seed int64, seconds int, traced bool) *report {
	return &report{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		values: make(map[string]float64), Info: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) check(name string, ok bool, format string, a ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, a...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *report) correct() bool {
	if r.Invalid != "" {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *report) defs() []metricDef {
	if r.Traced {
		return perLayerDefs
	}
	return endToEndDefs
}

// schemaMetrics is the run's slice of the schema: every end-to-end
// metric untraced, every per-layer metric traced, nothing else.
func (r *report) schemaMetrics() map[string]metric {
	out := make(map[string]metric)
	for _, d := range r.defs() {
		out[d.Name] = metric{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}

// driverLine is the last line of standard output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable table, the summary object (which
// claims nothing: this benchmark measures, it does not argue), and last
// the one line the driver reads.
func (r *report) print(w io.Writer, env envBlock) error {
	mode := "end-to-end (untraced)"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  %s\n", r.Workload, r.Seed, r.Seconds, mode)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", r.Workload+"/"+d.Name, r.values[d.Name], d.Unit)
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "  %-36s %14.4f (info)\n", k, r.Info[k])
	}
	fmt.Fprintf(w, "  ops %d  failed_ops %d\n", r.Attempted, r.Failed)
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-40s %s\n", c.Name, status)
	}
	if r.Invalid != "" {
		fmt.Fprintf(w, "  INVALID RUN: %s\n", r.Invalid)
	}
	summary := struct {
		*report
		Metrics map[string]metric `json:"metrics"`
		Env     envBlock          `json:"env"`
		Claim   any               `json:"claim"`
	}{report: r, Metrics: r.schemaMetrics(), Env: env}
	if err := json.NewEncoder(w).Encode(summary); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(driverLine{
		Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: r.schemaMetrics(),
	})
}

// envBlock records where the numbers were taken; every run prints it.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Link       string `json:"link"`
	RcvBufAsk  int    `json:"so_rcvbuf_requested"`
	RmemMax    int    `json:"net_core_rmem_max"`
	// RcvBufGrant is what the kernel grants for the request: it caps at
	// rmem_max (and then books twice that for its own overhead).
	RcvBufGrant int `json:"so_rcvbuf_granted"`
}

func readEnv() envBlock {
	e := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Link: "loopback (127.0.0.1), not a real link", RcvBufAsk: monReadBuffer,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/sys/net/core/rmem_max"); err == nil {
		fmt.Sscan(strings.TrimSpace(string(b)), &e.RmemMax)
	}
	e.RcvBufGrant = e.RcvBufAsk
	if e.RmemMax > 0 && e.RmemMax < e.RcvBufGrant {
		e.RcvBufGrant = e.RmemMax
	}
	return e
}
