package registry

import (
	"math"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/heartbeat"
)

// TestGroundTruthLatency drives the MarkFailure → suspect → latency
// pipeline deterministically: a marked peer's suspect transition must
// produce exactly one sample equal to (transition − mark).
func TestGroundTruthLatency(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, chenFactory(100*ms, 200*ms), Options{
		WheelTick:    10 * ms,
		OfflineAfter: clock.Second,
		EvictAfter:   -1,
	})
	r.Start()
	defer r.Stop()

	feed := func(peer string, seq uint64) {
		now := sim.Now()
		r.Observe(heartbeat.Arrival{From: peer, Seq: seq, Send: now.Add(-2 * ms), Recv: now})
	}
	for i := 0; i < 20; i++ {
		feed("victim", uint64(i))
		feed("bystander", uint64(i))
		sim.Advance(100 * ms)
	}
	if d := r.DetectionLatency(); d.Samples != 0 || d.Pending != 0 {
		t.Fatalf("pre-mark latency = %+v", d)
	}

	// Kill "victim" at a known instant; keep "bystander" beating.
	killed := sim.Now()
	r.MarkFailure("victim", killed)
	if d := r.DetectionLatency(); d.Pending != 1 {
		t.Fatalf("pending = %d, want 1", d.Pending)
	}
	var suspectAt clock.Time
	sub := r.Subscribe(64)
	for i := 20; i < 30; i++ {
		feed("bystander", uint64(i))
		sim.Advance(100 * ms)
	}
	for _, ev := range drain(sub) {
		if ev.Type == EventSuspect && ev.Peer == "victim" {
			suspectAt = ev.At
		}
		if ev.Peer == "bystander" {
			t.Fatalf("bystander transitioned: %v", ev)
		}
	}
	if suspectAt == 0 {
		t.Fatal("victim never suspected")
	}

	d := r.DetectionLatency()
	if d.Samples != 1 || d.Pending != 0 {
		t.Fatalf("latency after detection = %+v", d)
	}
	want := clock.Duration(suspectAt.Sub(killed)).Seconds()
	if math.Abs(d.Mean-want) > 0.05 {
		t.Fatalf("mean latency %.3fs, want ≈%.3fs (bin width tolerance)", d.Mean, want)
	}

	// The same transition must land on the /metrics histogram.
	r.Metrics() // builds the set, arming detLatHist
	r.MarkFailure("bystander", sim.Now())
	for i := 0; i < 15; i++ {
		sim.Advance(100 * ms)
	}
	var page strings.Builder
	r.Metrics().WritePrometheus(&page)
	if !strings.Contains(page.String(), "sfd_detection_latency_seconds_count 1") {
		t.Fatalf("histogram missing bystander sample:\n%s", grepLines(page.String(), "sfd_detection_latency"))
	}
}

// TestGroundTruthMarkCleared: a marked peer that keeps heartbeating past
// the settle grace was a mis-injection — the mark must be consumed
// without a sample.
func TestGroundTruthMarkCleared(t *testing.T) {
	sim := clock.NewSim(0)
	r := New(sim, chenFactory(100*ms, 200*ms), Options{WheelTick: 10 * ms})
	r.Start()
	defer r.Stop()

	feed := func(seq uint64) {
		now := sim.Now()
		r.Observe(heartbeat.Arrival{From: "p", Seq: seq, Send: now.Add(-ms), Recv: now})
	}
	for i := 0; i < 10; i++ {
		feed(uint64(i))
		sim.Advance(100 * ms)
	}
	r.MarkFailure("p", sim.Now())
	// A heartbeat inside the settle grace must NOT clear the mark (it
	// was in flight when the failure was injected)...
	sim.Advance(50 * ms)
	feed(10)
	if d := r.DetectionLatency(); d.Pending != 1 {
		t.Fatalf("in-grace heartbeat cleared the mark: %+v", d)
	}
	// ...but one beyond the grace proves the peer is alive.
	sim.Advance(200 * ms)
	feed(11)
	if d := r.DetectionLatency(); d.Pending != 0 {
		t.Fatalf("live peer still marked: %+v", d)
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
