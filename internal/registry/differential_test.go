package registry

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/trace"
)

// The inputs of the differential test; the generator in
// testdata/monitor_golden_gen.go.txt holds the same three constants.
const (
	goldenCount  = 20000             // heartbeats per preset
	goldenSample = 10 * ms           // StatusOf sampling period
	goldenTail   = 15 * clock.Second // silence after the last arrival: the crash
)

type statusChange struct {
	at     clock.Time
	status string
}

// readGolden parses monitor_timelines.golden into per-stream timelines.
func readGolden(t *testing.T) map[string][]statusChange {
	t.Helper()
	f, err := os.Open("testdata/monitor_timelines.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]statusChange)
	var stream string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "stream "):
			stream = strings.TrimPrefix(line, "stream ")
		default:
			at, status, ok := strings.Cut(line, " ")
			ns, err := strconv.ParseInt(at, 10, 64)
			if !ok || err != nil || stream == "" {
				t.Fatalf("golden: bad line %q", line)
			}
			out[stream] = append(out[stream], statusChange{clock.Time(ns), status})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRegistryReproducesMonitorTimelines pins the behaviour of the
// retired pull-based engine, cluster.Monitor, onto the Registry. The
// golden file is the per-stream status timeline Monitor produced for
// every trace preset (goldenCount heartbeats, then silence: a crash at
// end-of-trace) through a Chen and a default-SFD detector, StatusOf
// sampled every goldenSample. The Registry, driven on clock.Sim with
// Monitor's semantics (no silence net, no eviction), must walk every
// stream through the same unknown/active/busy/suspected sequence with
// every change seen within one WheelTick of Monitor's.
//
// The offline verdict is where the engines differ by rule, not by
// timing, so it is checked against each rule instead of a tolerance.
// Monitor counted OfflineAfter from the first expired freshness point
// of an unbroken suspicion, even while heartbeats whose own freshness
// points had already passed kept being accepted; the Registry ends the
// episode at every accepted heartbeat and counts from the freshness
// point of the last one. Hence: every Registry offline lands within one
// tick of that freshness point + OfflineAfter, and a Monitor offline
// may be missing or later in the Registry only if a heartbeat was
// accepted while Monitor was counting.
//
// The golden file was generated at commit 3219c99, the last with
// internal/cluster, by
//
//	cp internal/registry/testdata/monitor_golden_gen.go.txt $PARENT/internal/cluster/golden_gen_test.go
//	cd $PARENT && MONITOR_GOLDEN=$OUT/monitor_timelines.golden go test ./internal/cluster -run TestGenerateMonitorGolden
//
// where $PARENT is a checkout of that commit.
func TestRegistryReproducesMonitorTimelines(t *testing.T) {
	golden := readGolden(t)
	for _, preset := range trace.PresetNames() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			gp, err := trace.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			gp.Count = goldenCount
			interval := gp.Meta.Interval
			factory := func(peer string) detector.Detector {
				if peer == preset+"/chen" {
					return detector.NewChen(1000, interval, 50*ms)
				}
				return core.New(core.DefaultConfig())
			}
			streams := []string{preset + "/chen", preset + "/sfd"}

			sim := clock.NewSim(0)
			reg := New(sim, factory, Options{MaxSilence: -1, EvictAfter: -1})
			reg.Start()
			defer reg.Stop()
			tick, offlineAfter := reg.Options().WheelTick, reg.Options().OfflineAfter
			got := make(map[string][]statusChange)
			for _, s := range streams {
				if err := reg.Register(s); err != nil {
					t.Fatal(err)
				}
			}

			var arrivals []clock.Time // accepted heartbeats, ascending
			gen := trace.NewGenerator(gp)
			rec, more := gen.Next()
			var end clock.Time
			for now := clock.Time(0); more || now <= end; now = now.Add(goldenSample) {
				for more && (rec.Lost || rec.RecvTime <= now) {
					if !rec.Lost {
						sim.Advance(rec.RecvTime.Sub(sim.Now()))
						for _, s := range streams {
							reg.Observe(heartbeat.Arrival{From: s, Seq: rec.Seq, Send: rec.SendTime, Recv: rec.RecvTime})
						}
						arrivals = append(arrivals, rec.RecvTime)
						end = rec.RecvTime.Add(goldenTail)
					}
					rec, more = gen.Next()
				}
				sim.Advance(now.Sub(sim.Now()))
				for _, s := range streams {
					st, ok := reg.StatusOf(s, now)
					if !ok {
						t.Fatalf("%s: not tracked at %v", s, now)
					}
					tl := got[s]
					if len(tl) > 0 && tl[len(tl)-1].status == st.String() {
						continue
					}
					got[s] = append(tl, statusChange{now, st.String()})
					if st == StatusOffline {
						var fp clock.Time
						reg.Inspect(s, func(d detector.Detector) { fp = d.FreshnessPoint() })
						if late := now.Sub(fp.Add(offlineAfter)); late < 0 || late > tick {
							t.Errorf("%s: offline at %v, %v after freshness point %v + OfflineAfter", s, now, late, fp)
						}
					}
				}
			}

			// acceptedIn reports whether a heartbeat arrived in (from, to].
			acceptedIn := func(from, to clock.Time) bool {
				i := sort.Search(len(arrivals), func(i int) bool { return arrivals[i] > from })
				return i < len(arrivals) && arrivals[i] <= to
			}
			for _, s := range streams {
				want, wantOff := splitOffline(golden[s])
				have, haveOff := splitOffline(got[s])
				if err := sameTimeline(want, have, tick); err != nil {
					t.Errorf("%s: %v", s, err)
					continue
				}
				for i, at := range haveOff {
					if _, ok := wantOff[i]; !ok {
						t.Errorf("%s: Registry went offline at %v, Monitor stayed suspected", s, at)
					}
				}
				for i, at := range wantOff {
					regAt, ok := haveOff[i]
					if ok && regAt.Sub(at) <= tick && at.Sub(regAt) <= tick {
						continue
					}
					if ok && regAt < at {
						t.Errorf("%s: Registry went offline at %v, before Monitor at %v", s, regAt, at)
					}
					if !acceptedIn(at.Add(-offlineAfter), at) {
						t.Errorf("%s: Monitor went offline at %v after %v of silence; Registry did not (offline at %v, %v)",
							s, at, offlineAfter, regAt, ok)
					}
				}
			}
		})
	}
}

// splitOffline separates a timeline's offline verdicts from the rest:
// it returns the timeline with offline read as (still) suspected, and
// the offline instants keyed by the index of the suspicion they end.
func splitOffline(tl []statusChange) (rest []statusChange, offline map[int]clock.Time) {
	offline = make(map[int]clock.Time)
	for _, c := range tl {
		if c.status == StatusOffline.String() {
			offline[len(rest)-1] = c.at
			continue
		}
		rest = append(rest, c)
	}
	return rest, offline
}

// sameTimeline reports the first point where got departs from want: a
// different status, or the same status more than tol apart.
func sameTimeline(want, got []statusChange, tol clock.Duration) error {
	if len(want) == 0 {
		return fmt.Errorf("no golden timeline")
	}
	for i := range want {
		if i >= len(got) {
			return fmt.Errorf("change %d: Monitor went %s at %v, Registry's timeline ended", i, want[i].status, want[i].at)
		}
		if want[i].status != got[i].status {
			return fmt.Errorf("change %d: Monitor went %s at %v, Registry %s at %v",
				i, want[i].status, want[i].at, got[i].status, got[i].at)
		}
		if d := got[i].at.Sub(want[i].at); d > tol || d < -tol {
			return fmt.Errorf("change %d (%s): Monitor at %v, Registry at %v (%v apart, tolerance %v)",
				i, want[i].status, want[i].at, got[i].at, d, tol)
		}
	}
	if len(got) > len(want) {
		return fmt.Errorf("Registry made %d extra changes, first %s at %v",
			len(got)-len(want), got[len(want)].status, got[len(want)].at)
	}
	return nil
}
