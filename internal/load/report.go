package load

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/registry"
)

// CohortReport summarizes one cohort's send side.
type CohortReport struct {
	Name       string          `json:"name"`
	Count      int             `json:"count"`
	IntervalMS float64         `json:"interval_ms"`
	Sent       uint64          `json:"sent"`
	SendErrors uint64          `json:"send_errors"`
	Chaos      *chaos.Counters `json:"chaos,omitempty"`
}

// QoSAggregate rolls the paper's per-stream QoS metrics up over one
// monitor's registry: how many streams each lifecycle phase holds, how
// many detectors are self-tuning, and the mean of the last measured
// slot's TD / MR / QAP across tuned streams.
type QoSAggregate struct {
	Streams  int            `json:"streams"`
	Phases   map[string]int `json:"phases"`
	Tuned    int            `json:"tuned"`
	Measured int            `json:"measured"`
	MeanTDS  float64        `json:"mean_td_s"`
	MeanMR   float64        `json:"mean_mr_per_s"`
	MeanQAP  float64        `json:"mean_qap"`
}

// MonitorReport is one monitor node's receive-side view.
type MonitorReport struct {
	Addr         string                    `json:"addr"`
	Heartbeats   uint64                    `json:"heartbeats"`
	UDPReceived  uint64                    `json:"udp_received"`
	UDPDropped   uint64                    `json:"udp_dropped"`
	Stale        uint64                    `json:"stale"`
	Suspects     uint64                    `json:"suspects"`
	Trusts       uint64                    `json:"trusts"`
	Offlines     uint64                    `json:"offlines"`
	QoS          QoSAggregate              `json:"qos"`
	Detection    registry.DetectionLatency `json:"registry_detection_latency"`
	WatchEvents  uint64                    `json:"watch_events"`
	WatchDropped uint64                    `json:"watch_dropped"`
	WatchReconns uint64                    `json:"watch_reconnects"`
}

// Report is the run's JSON artifact.
type Report struct {
	Scenario   string          `json:"scenario"`
	StartedAt  time.Time       `json:"started_at"`
	WallTime   float64         `json:"wall_time_s"`
	Total      int             `json:"total_senders"`
	DurationS  float64         `json:"duration_s"`
	Seed       int64           `json:"seed"`
	Monitors   []MonitorReport `json:"monitors"`
	Cohorts    []CohortReport  `json:"cohorts"`
	Tracker    TrackerStats    `json:"ground_truth"`
	Bounds     Bounds          `json:"bounds"`
	Violations []string        `json:"violations,omitempty"`
	Pass       bool            `json:"pass"`
}

// evaluate scores the report against the bounds, filling Violations and
// Pass.
func (r *Report) evaluate() {
	b := r.Bounds
	add := func(format string, a ...any) {
		r.Violations = append(r.Violations, fmt.Sprintf(format, a...))
	}
	if b.MaxSpurious >= 0 && r.Tracker.Spurious > b.MaxSpurious {
		add("spurious transitions %d > max %d", r.Tracker.Spurious, b.MaxSpurious)
	}
	if b.MaxMissed >= 0 && r.Tracker.Missed > b.MaxMissed {
		add("missed detections %d > max %d", r.Tracker.Missed, b.MaxMissed)
	}
	if b.MaxP99 > 0 && r.Tracker.Local.Samples > 0 &&
		r.Tracker.Local.P99 > b.MaxP99.Seconds() {
		add("detection latency p99 %.2fs > max %v", r.Tracker.Local.P99, b.MaxP99)
	}
	if b.MinDetected > 0 && r.Tracker.Local.Samples < b.MinDetected {
		add("only %d latency samples (need >= %d)", r.Tracker.Local.Samples, b.MinDetected)
	}
	// A tap that shed events can hide spurious transitions; surface it
	// as a violation only when the spurious bound is strict.
	if b.MaxSpurious == 0 {
		for _, m := range r.Monitors {
			if m.WatchDropped > 0 {
				add("watch tap on %s shed %d events (spurious count unreliable)",
					m.Addr, m.WatchDropped)
				break
			}
		}
	}
	r.Pass = len(r.Violations) == 0
}

func phaseName(p registry.StreamPhase) string {
	switch p {
	case registry.StreamTrusted:
		return "trusted"
	case registry.StreamSuspected:
		return "suspected"
	case registry.StreamOffline:
		return "offline"
	default:
		return fmt.Sprintf("phase-%d", p)
	}
}

// qosAggregate sweeps one registry.
func qosAggregate(reg *registry.Registry) QoSAggregate {
	agg := QoSAggregate{Phases: make(map[string]int)}
	reg.ForEachStream(func(v registry.StreamView) {
		agg.Streams++
		agg.Phases[phaseName(v.Phase)]++
		if v.Tuned {
			agg.Tuned++
			if v.TD > 0 || v.MR > 0 || v.QAP > 0 {
				agg.Measured++
				agg.MeanTDS += v.TD.Seconds()
				agg.MeanMR += v.MR
				agg.MeanQAP += v.QAP
			}
		}
	})
	if agg.Measured > 0 {
		agg.MeanTDS /= float64(agg.Measured)
		agg.MeanMR /= float64(agg.Measured)
		agg.MeanQAP /= float64(agg.Measured)
	}
	return agg
}
