package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"os"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: a
// live run re-executes itself as the generator, and finds BENCHMARK.json
// and its output directory relative to the repository root.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "generator" {
		generatorMain()
		return
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	// The miniatures sleep through most of their few seconds; run them all
	// at once, not two at a time.
	flag.Parse()
	flag.Set("test.parallel", "16")
	os.Exit(m.Run())
}

func TestSameSeedSameTimeline(t *testing.T) {
	for _, w := range []string{"steady", "storm", "fleet"} {
		a, err := buildPlan(w, 7, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPlan(w, 7, 12, 1)
		c, _ := buildPlan(w, 8, 12, 1)
		if len(a.faults) == 0 {
			t.Errorf("%s: plan injects no faults", w)
		}
		if !bytes.Equal(a.fingerprint(), b.fingerprint()) {
			t.Errorf("%s: the same seed gave two different fault timelines", w)
		}
		if bytes.Equal(a.fingerprint(), c.fingerprint()) {
			t.Errorf("%s: different seeds gave the same fault timeline", w)
		}
		for i, f := range a.faults {
			if f.at >= f.firstMissed || f.at < a.warm || f.firstMissed+int64(classFast.Margin) >= a.timedEnd {
				t.Fatalf("%s: fault %d at %d (first missed beat %d) falls outside the timed phase [%d, %d]",
					w, i, f.at, f.firstMissed, a.warm, a.timedEnd)
			}
		}
	}
}

// The fleet workload's attribution of a verdict to a victim rests on one
// kill outstanding per cohort at a time.
func TestFleetOneOutstandingKillPerCohort(t *testing.T) {
	p, err := buildPlan("fleet", 3, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[int32]int64)
	for _, f := range p.faults {
		c := p.streams[f.stream].group
		if prev, ok := last[c]; ok && f.firstMissed < prev+int64(fleetRollup) {
			t.Fatalf("cohort %d: victims first miss beats at %d and %d, less than a roll-up apart", c, prev, f.firstMissed)
		}
		last[c] = f.firstMissed
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {2040, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{9, 1, 4, 7, 10, 2, 5, 8, 3, 6}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := percentile([]float64{10, 20, 30, 40, 50}, 90); got != 46 {
		t.Errorf("percentile p90 = %v, want 46", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "registry.watch", Start: 0, End: 100},            // 1
		{Name: "bus.delivery", Start: 10, End: 30, Parent: 1},   // 2
		{Name: "bus.delivery", Start: 20, End: 50, Parent: 1},   // 3, overlaps 2
		{Name: "bus.delivery", Start: 90, End: 120, Parent: 1},  // 4, runs past its parent
		{Name: "fanout.match", Start: 22, End: 25, Parent: 3},   // 5, a grandchild: not 1's business
		{Name: "registry.snapshot", Start: 200, End: 260},       // 6
		{Name: "registry.foreach", Start: 0, End: 0, Parent: 6}, // 7, empty
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3, 60, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i+1, spans[i].Name, self[i], want[i])
		}
	}
	by := selfByLayer(spans)
	got := map[string]float64{}
	for _, l := range by {
		got[l.Layer] = l.SelfMs * 1e6
	}
	if got["registry"] != 110 || got["bus"] != 77 || got["fanout"] != 3 {
		t.Errorf("self time by layer = %v", got)
	}
}

// The generator must send exactly the beats the plan calls for and
// charge a late start to the beats it delayed, not hide it.
func TestGeneratorSendsThePlanAndAccountsLateness(t *testing.T) {
	t.Parallel()
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sink.SetReadBuffer(4 << 20)
	p, err := buildPlan("steady", 5, 2, 0.01) // 400 streams, 3 s in all
	if err != nil {
		t.Fatal(err)
	}
	// Expected: every stream beats once per second unless the plan has
	// it dead at the beat's due instant.
	var want uint64
	for s := range p.streams {
		for due := p.streams[s].phase; due < p.timedEnd; due += int64(time.Second) {
			alive := true
			for _, o := range p.ops {
				if o.target == int32(s) && o.at <= due {
					alive = o.kind == opRestart
				}
			}
			if alive {
				want++
			}
		}
	}
	const lateStart = 30 * time.Millisecond
	g, err := newGenerator(p, genSpec{T0Mono: monoNow() - int64(lateStart), T0Clock: int64(time.Hour), Dst: [2]string{sink.LocalAddr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	// Shift the warm boundary to zero so the late start is inside the
	// measured phase.
	g.warm = 0
	g.run()
	g.conn.Close()
	res := g.result()
	if res.Sent[0] != want || res.SendErrors != 0 {
		t.Errorf("generator sent %d beats (%d errors), the plan calls for %d", res.Sent[0], res.SendErrors, want)
	}
	if res.FaultsDone != len(p.faults) {
		t.Errorf("generator applied %d faults, the plan has %d", res.FaultsDone, len(p.faults))
	}
	if res.LateMaxUs < float64(lateStart/time.Microsecond)*0.9 {
		t.Errorf("started %v late but the worst beat is reported only %.0f µs late", lateStart, res.LateMaxUs)
	}
	// Caught up: the median beat is far less late than the worst one. (Not
	// an absolute limit: this test shares two cores with the miniatures.)
	if res.LateP50Us > res.LateMaxUs/2 {
		t.Errorf("median lateness %.0f µs, worst %.0f µs: the generator never caught up with its schedule", res.LateP50Us, res.LateMaxUs)
	}
	// And what arrived is what was sent: decode a few datagrams.
	buf := make([]byte, 2048)
	sink.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err := sink.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPatch(); err != nil {
		t.Fatal(err)
	}
	if n < hbIncOff+8 {
		t.Fatalf("short datagram: %d bytes", n)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// BENCHMARK.json and the program must describe the same benchmark.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", doc.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !equalStrings(names, workloads) {
		t.Errorf("workloads %v, program has %v", names, workloads)
	}
	if len(doc.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(doc.EndToEnd), len(endToEndDefs))
	}
	for i, m := range doc.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		// No bound is wider than a tenth: a metric that cannot hold one
		// is per-layer.
		if m.Bound != regressionBound[m.Name] || m.Bound <= 0 || m.Bound > 0.10 {
			t.Errorf("%s: bound %v, program has %v, and it must lie in (0, 0.10]", m.Name, m.Bound, regressionBound[m.Name])
		}
	}
	if len(doc.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics, program has %d", len(doc.PerLayer), len(perLayerDefs))
	}
	for i, m := range doc.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Miniatures: every workload, shrunk, in both modes, must run clean and
// emit exactly the metric names BENCHMARK.json lists for the mode it ran
// in. (The timed phase is the shortest in which the plan can still place
// a fault: a 1 s stream's verdict takes 1.25 s, the fleet's a roll-up
// more.)
func TestMiniatureWorkloads(t *testing.T) {
	t.Parallel()
	doc := readBenchmarkJSON(t)
	var e2e, layer []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, c := range []struct {
		workload string
		seconds  int
		scale    float64
	}{
		{"steady", 2, 0.02},
		{"storm", 3, 0.05},
		{"fleet", 3, 0.04},
		{"replay", 1, 0.01},
	} {
		for _, traced := range []bool{false, true} {
			c, traced := c, traced
			name := c.workload + "-e2e"
			if traced {
				name = c.workload + "-traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rep, err := runWorkload(c.workload, 11, c.seconds, traced, c.scale)
				if err != nil {
					t.Fatal(err)
				}
				for _, ch := range rep.Checks {
					if !ch.OK {
						t.Errorf("check %s failed: %s", ch.Name, ch.Detail)
					}
				}
				if rep.Invalid != "" {
					t.Logf("run reported invalid (not fatal in a miniature on a shared box): %s", rep.Invalid)
				}
				var got []string
				for k, m := range rep.schemaMetrics() {
					got = append(got, k)
					if m.Unit == "" {
						t.Errorf("metric %s has no unit", k)
					}
				}
				sort.Strings(got)
				want := e2e
				if traced {
					want = layer
				}
				if !equalStrings(got, want) {
					t.Errorf("emitted metrics %v\nBENCHMARK.json lists %v", got, want)
				}
				if !traced {
					for _, k := range want {
						if rep.values[k] <= 0 {
							t.Errorf("end-to-end metric %s = %v, must be positive", k, rep.values[k])
						}
					}
				}
				if traced && rep.TraceFile == "" {
					t.Error("traced run wrote no trace file")
				}
			})
		}
	}
}

// Replay's time outputs are simulated time: one seed, one answer, to the
// bit, however the box behaves.
func TestReplayRepeatsToTheBit(t *testing.T) {
	t.Parallel()
	a, err := runWorkload("replay", 5, 1, false, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload("replay", 5, 1, false, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runWorkload("replay", 6, 1, false, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for _, m := range replaySimulated {
		if a.values[m] != b.values[m] {
			t.Errorf("%s: %v then %v on the same seed", m, a.values[m], b.values[m])
		}
		moved = moved || a.values[m] != c.values[m]
	}
	if !moved {
		t.Error("another seed gave the same simulated-time outputs: they do not depend on the seed at all")
	}
}
