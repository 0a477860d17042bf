package gossip

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
)

// TestInstrumentMetricsExposition registers the gossiper's instruments
// into the owning registry's set — the one-page integration sfdmon uses —
// drives a round so the counters move, and checks the rendered page.
func TestInstrumentMetricsExposition(t *testing.T) {
	sim, reg, g, ep, _ := newTestRig(t, Options{Quorum: 2})
	g.InstrumentMetrics(reg.Metrics())

	// A subject goes silent long enough to be suspected, then a round
	// sends digests about it.
	beat(reg, sim, "subject-1", 1, 0)
	sim.Advance(2500 * clock.Millisecond)
	g.Round(sim.Now())
	if len(ep.take()) == 0 {
		t.Fatal("round sent no digests; test rig assumption broken")
	}

	var b strings.Builder
	if err := reg.Metrics().WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	page := b.String()

	sent := g.Counters().DigestsSent
	if sent == 0 {
		t.Fatal("DigestsSent = 0 after a round with a suspect")
	}
	for _, want := range []string{
		"# TYPE sfd_gossip_digests_sent_total counter",
		"sfd_gossip_digests_sent_total " + strconv.FormatUint(sent, 10),
		"sfd_gossip_send_errors_total 0",
		"sfd_gossip_global_offlines_total",
		"sfd_gossip_global_suspects_total",
		"sfd_gossip_opinions_expired_total",
		"sfd_gossip_weight",
		"sfd_gossip_mistake_rate",
		// The registry's own series share the page.
		"sfd_registry_heartbeats_total 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("page:\n%s", page)
	}
}
