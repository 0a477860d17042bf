package registry

import (
	"repro/internal/clock"
	"repro/internal/stats"
)

// Ground-truth detection-latency tap. A harness that injects a failure
// (kills a sender, partitions a link) knows the exact instant heartbeats
// stopped; the registry is the first component that can pair that instant
// with its own suspect transition. MarkFailure records the injection;
// the transition path then measures injection→suspect latency without
// the harness having to race the event bus.
//
// The hot path pays one atomic load per arrival while no marks are
// outstanding, so production monitors that never call MarkFailure are
// unaffected.

// markSettleGrace is how much older than an accepted arrival a mark must
// be before the arrival clears it. Heartbeats sent just before the
// injected failure can still be in flight when the mark lands; without
// the grace they would erase the mark and the detection would go
// unmeasured. 100 ms is orders of magnitude above loopback delivery and
// well under any realistic heartbeat interval.
const markSettleGrace = 100 * clock.Millisecond

// detLatRange bounds the stats.Histogram backing the latency quantiles:
// 0–120 s at 50 ms resolution. Latencies beyond the range still count
// (overflow bin) but stop resolving.
const (
	detLatMax  = 120.0
	detLatBins = 2400
)

// DetectionLatencyBuckets is the /metrics histogram layout for
// sfd_detection_latency_seconds: second-scale, because detection latency
// is dominated by the heartbeat interval plus the tuned safety margin,
// not by network RTT.
var DetectionLatencyBuckets = []float64{
	0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 7.5, 10, 15, 20, 30, 45, 60,
}

// MarkFailure records that peer's heartbeats were stopped at instant at
// (harness ground truth). The next suspect transition for the peer
// observes the injection→suspect latency and consumes the mark; an
// accepted heartbeat arriving more than markSettleGrace after at clears
// it instead (the failure did not stick, or the process restarted).
// Re-marking an already-marked peer moves its injection instant.
func (r *Registry) MarkFailure(peer string, at clock.Time) {
	r.marksMu.Lock()
	if r.marks == nil {
		r.marks = make(map[string]clock.Time)
	}
	if _, ok := r.marks[peer]; !ok {
		r.markCount.Add(1)
	}
	r.marks[peer] = at
	r.marksMu.Unlock()
}

// clearMark drops peer's mark if the accepted arrival at recv postdates
// it by more than the settle grace. Called from Observe only while marks
// are outstanding.
func (r *Registry) clearMark(peer string, recv clock.Time) {
	r.marksMu.Lock()
	if at, ok := r.marks[peer]; ok && recv.Sub(at) > markSettleGrace {
		delete(r.marks, peer)
		r.markCount.Add(-1)
	}
	r.marksMu.Unlock()
}

// noteDetection consumes peer's mark at a suspect transition, feeding
// the injection→suspect latency into the quantile histogram and the
// /metrics histogram. Called from expire only while marks are
// outstanding.
func (r *Registry) noteDetection(peer string, now clock.Time) {
	r.marksMu.Lock()
	at, ok := r.marks[peer]
	var lat clock.Duration
	if ok {
		delete(r.marks, peer)
		r.markCount.Add(-1)
		lat = now.Sub(at)
		if lat < 0 {
			lat = 0
		}
		if r.detLat == nil {
			r.detLat = stats.NewHistogram(0, detLatMax, detLatBins)
		}
		r.detLat.Add(lat.Seconds())
	}
	r.marksMu.Unlock()
	if ok {
		if h := r.detLatHist.Load(); h != nil {
			h.Observe(lat.Seconds())
		}
	}
}

// DetectionLatency summarizes the ground-truth latency samples observed
// so far (all zero before the first MarkFailure detection).
type DetectionLatency struct {
	Samples int64   `json:"samples"`
	Pending int     `json:"pending"` // marks awaiting detection
	Mean    float64 `json:"mean_s"`
	StdDev  float64 `json:"stddev_s"`
	P50     float64 `json:"p50_s"`
	P95     float64 `json:"p95_s"`
	P99     float64 `json:"p99_s"`
}

// DetectionLatency returns the current ground-truth summary.
func (r *Registry) DetectionLatency() DetectionLatency {
	r.marksMu.Lock()
	defer r.marksMu.Unlock()
	out := DetectionLatency{Pending: len(r.marks)}
	h := r.detLat
	if h == nil || h.Total() == 0 {
		return out
	}
	out.Samples = h.Total()
	out.Mean = h.Mean()
	out.StdDev = h.StdDev()
	out.P50 = h.Quantile(0.50)
	out.P95 = h.Quantile(0.95)
	out.P99 = h.Quantile(0.99)
	return out
}
