package gossip

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/fanout"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/wire"
)

func sampleGossipRecord() *persist.GossipRecord {
	return &persist.GossipRecord{
		ID:          "mon-a",
		MistakeRate: 0.125,
		Seq:         42,
		Weights:     []persist.MonitorWeight{{Monitor: "mon-b", Weight: 0.75}},
		Opinions: []persist.OpinionRecord{
			{Subject: "srv-1", Monitor: "mon-b", State: uint8(StateSuspect),
				Inc: 2, Level: 1.5, Seq: 7, At: clock.Time(clock.Second)},
		},
		Verdicts: []persist.VerdictRecord{{Subject: "srv-1", State: uint8(StateSuspect)}},
		Suspects: []string{"srv-1"},
	}
}

func TestGossipStateRoundTrip(t *testing.T) {
	_, _, g, _, _ := newTestRig(t, Options{Seed: 1})
	now := clock.Time(5 * clock.Second)
	g.ImportState(sampleGossipRecord(), now)

	rec := g.ExportState(now)
	if rec.Seq != 42 {
		t.Fatalf("Seq = %d, want 42", rec.Seq)
	}
	if rec.MistakeRate != 0.125 {
		t.Fatalf("MistakeRate = %g", rec.MistakeRate)
	}
	if len(rec.Weights) != 1 || rec.Weights[0] != (persist.MonitorWeight{Monitor: "mon-b", Weight: 0.75}) {
		t.Fatalf("Weights = %+v", rec.Weights)
	}
	if len(rec.Opinions) != 1 || rec.Opinions[0].Seq != 7 || rec.Opinions[0].At != clock.Time(clock.Second) {
		t.Fatalf("Opinions = %+v", rec.Opinions)
	}
	if len(rec.Verdicts) != 1 || rec.Verdicts[0].Subject != "srv-1" {
		t.Fatalf("Verdicts = %+v", rec.Verdicts)
	}
	if g.VerdictOf("srv-1") != StateSuspect {
		t.Fatalf("VerdictOf(srv-1) = %v", g.VerdictOf("srv-1"))
	}
}

func TestGossipImportNeverRegressesSeq(t *testing.T) {
	_, _, g, _, _ := newTestRig(t, Options{Seed: 1})
	now := clock.Time(clock.Second)
	g.ImportState(sampleGossipRecord(), now)

	older := sampleGossipRecord()
	older.Seq = 5
	g.ImportState(older, now)
	if got := g.ExportState(now).Seq; got != 42 {
		t.Fatalf("Seq regressed to %d after importing an older record", got)
	}
}

func TestGossipImportSkipsInvalidEntries(t *testing.T) {
	_, _, g, _, _ := newTestRig(t, Options{Seed: 1})
	now := clock.Time(clock.Second)
	rec := &persist.GossipRecord{
		MistakeRate: 2.0, // out of [0,1]
		Weights: []persist.MonitorWeight{
			{Monitor: "", Weight: 0.5},
			{Monitor: "mon-b", Weight: 1.5},
		},
		Opinions: []persist.OpinionRecord{
			{Subject: "", Monitor: "mon-b", State: uint8(StateSuspect)},
			{Subject: "srv-1", Monitor: "mon-b", State: 99},
		},
		Verdicts: []persist.VerdictRecord{{Subject: "srv-1", State: 99}},
		Suspects: []string{""},
	}
	g.ImportState(rec, now)
	out := g.ExportState(now)
	if out.MistakeRate != 0 || len(out.Weights) != 0 || len(out.Opinions) != 0 ||
		len(out.Verdicts) != 0 || len(out.Suspects) != 0 {
		t.Fatalf("invalid entries imported: %+v", out)
	}
}

func TestGossipImportClampsFutureInstants(t *testing.T) {
	_, _, g, _, _ := newTestRig(t, Options{Seed: 1})
	now := clock.Time(clock.Second)
	rec := sampleGossipRecord()
	rec.Opinions[0].At = now.Add(clock.Second) // clock skew: future-dated
	g.ImportState(rec, now)
	if got := g.ExportState(now).Opinions[0].At; got != now {
		t.Fatalf("future-dated opinion At = %v, want clamped to %v", got, now)
	}
}

// TestGossipSurvivesRestart is the wiring drill: a gossiper attached to a
// persistence-enabled registry rides in its snapshots and is handed back
// to the next life's gossiper at construction.
func TestGossipSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ropts := registry.Options{
		WheelTick:    10 * clock.Millisecond,
		OfflineAfter: 300 * clock.Millisecond,
		MaxSilence:   2 * clock.Second,
		EvictAfter:   -1,
		StateDir:     dir,
	}
	factory := func(string) detector.Detector { return detector.NewFixed(300*clock.Millisecond, 0) }

	sim1 := clock.NewSim(0)
	r1 := registry.New(sim1, factory, ropts)
	r1.Start()
	g1 := New(&stubEP{addr: "mon-a"}, sim1, r1, []string{"mon-b"}, Options{Seed: 1})
	g1.ImportState(sampleGossipRecord(), sim1.Now())
	beat(r1, sim1, "srv-1", 1, 2)
	sim1.Advance(100 * clock.Millisecond)
	g1.Stop()
	r1.Stop() // final snapshot carries the gossip record

	sim2 := clock.NewSim(0)
	r2 := registry.New(sim2, factory, ropts)
	if _, err := r2.RestoreFromDisk(50 * clock.Millisecond); err != nil {
		t.Fatalf("RestoreFromDisk: %v", err)
	}
	r2.Start()
	defer r2.Stop()
	g2 := New(&stubEP{addr: "mon-a"}, sim2, r2, []string{"mon-b"}, Options{Seed: 1})
	defer g2.Stop()

	rec := g2.ExportState(sim2.Now())
	if rec.Seq < 42 {
		t.Fatalf("digest seq regressed across restart: %d", rec.Seq)
	}
	if g2.VerdictOf("srv-1") != StateSuspect {
		t.Fatalf("verdict lost across restart: %v", g2.VerdictOf("srv-1"))
	}
	if len(rec.Opinions) != 1 || rec.Opinions[0].Monitor != "mon-b" {
		t.Fatalf("opinion table lost across restart: %+v", rec.Opinions)
	}
	// The record is claimed exactly once; a third party gets nothing.
	if got := r2.ClaimRestoredGossip(); got != nil {
		t.Fatalf("restored gossip claimable twice: %+v", got)
	}
}

// TestNameBoundEnforcedAtRegistration: the registry is where a stream
// name enters the program, so that is where wire.MaxNameLen is enforced.
// A 513-byte name used to register, then panic Digest.Marshal in the
// gossip loop once suspected, and was silently truncated by the snapshot
// codec (two long names could collide after a warm restart). Over the
// bound is refused and counted; at the bound, a gossip round and a
// snapshot round trip both carry the name whole.
func TestNameBoundEnforcedAtRegistration(t *testing.T) {
	sim, reg, g, ep, _ := newTestRig(t, Options{})
	if err := reg.Register(strings.Repeat("x", wire.MaxNameLen+1)); !errors.Is(err, fanout.ErrNameTooLong) {
		t.Fatalf("Register(513 bytes) = %v, want ErrNameTooLong", err)
	}
	beat(reg, sim, strings.Repeat("y", wire.MaxNameLen+1), 1, 0)
	if c := reg.Counters(); c.InvalidNames != 2 || reg.Len() != 0 {
		t.Fatalf("invalid_names = %d, streams = %d; want 2 and 0", c.InvalidNames, reg.Len())
	}

	name := strings.Repeat("n", wire.MaxNameLen)
	beat(reg, sim, name, 1, 0)
	sim.Advance(clock.Second) // suspected
	g.Round(sim.Now())
	sent := ep.take()
	if len(sent) == 0 {
		t.Fatal("round sent no digest")
	}
	d, err := UnmarshalDigest(sent[0].payload)
	if err != nil || len(d.Entries) != 1 || d.Entries[0].Subject != name {
		t.Fatalf("digest = %+v, %v; want the one 512-byte subject", d.Entries, err)
	}

	snap, err := persist.DecodeSnapshot(persist.EncodeSnapshot(reg.ExportSnapshot(sim.Now())))
	if err != nil {
		t.Fatalf("snapshot round trip: %v", err)
	}
	if len(snap.Streams) != 1 || snap.Streams[0].Peer != name {
		t.Fatalf("snapshot streams = %d, want the one 512-byte name", len(snap.Streams))
	}
	if snap.Gossip == nil || len(snap.Gossip.Suspects) != 1 || snap.Gossip.Suspects[0] != name {
		t.Fatalf("snapshot gossip record = %+v, want the 512-byte suspect", snap.Gossip)
	}
}
