package registry

import (
	"fmt"
	"strings"

	"repro/internal/clock"
)

// Status is a monitored server's state as the paper's introduction
// classifies it: "some of the servers are active and available, while
// others are busy or heavy loaded, and the remaining are offline or even
// crashed".
type Status int

const (
	// StatusUnknown: no heartbeat seen yet.
	StatusUnknown Status = iota
	// StatusActive: suspicion below the busy threshold.
	StatusActive
	// StatusBusy: heartbeats arriving late — the server is alive but
	// slow or heavily loaded (suspicion between the busy and suspect
	// thresholds).
	StatusBusy
	// StatusSuspected: suspicion above the suspect threshold.
	StatusSuspected
	// StatusOffline: suspected for longer than the offline grace period
	// — treated as crashed (a crashed process does not recover in the
	// paper's model, but a wrongly-suspected server that resumes
	// heartbeats is restored).
	StatusOffline
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusUnknown:
		return "unknown"
	case StatusActive:
		return "active"
	case StatusBusy:
		return "busy"
	case StatusSuspected:
		return "suspected"
	case StatusOffline:
		return "offline"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Report is a point-in-time view of one monitored server.
type Report struct {
	Peer           string
	Status         Status
	SuspicionLevel float64
	LastSeq        uint64
	LastArrival    clock.Time
	FreshnessPoint clock.Time
	Detector       string
	// Incarnation is the server's current incarnation (0 until a v2
	// sender announces one).
	Incarnation uint64
}

// FormatSnapshot renders a snapshot as an aligned status board — the
// human-readable "guidance" the paper's PlanetLab motivation asks for.
// Used by cmd/sfdmon and the examples.
func FormatSnapshot(reports []Report) string {
	if len(reports) == 0 {
		return "(no peers)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-10s %-10s %-10s %s\n", "peer", "status", "level", "lastSeq", "detector")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-28s %-10s %-10.3f %-10d %s\n",
			r.Peer, r.Status, r.SuspicionLevel, r.LastSeq, r.Detector)
	}
	return b.String()
}

// Summarize counts a snapshot by status and lists the peers needing
// attention (suspected or offline).
func Summarize(reports []Report) (counts map[Status]int, attention []string) {
	counts = make(map[Status]int)
	for _, r := range reports {
		counts[r.Status]++
		if r.Status >= StatusSuspected {
			attention = append(attention, r.Peer)
		}
	}
	return counts, attention
}
