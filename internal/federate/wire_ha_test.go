package federate

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/wire"
)

func randPeerBeat(rng *rand.Rand) PeerBeat {
	return PeerBeat{
		Agg:           randName(rng),
		Region:        randRegion(rng),
		Inc:           rng.Uint64(),
		Seq:           rng.Uint64(),
		SentAt:        clock.Time(rng.Int63()),
		AssignVersion: rng.Uint64(),
		Leader:        rng.Intn(2) == 0,
		Ready:         rng.Intn(2) == 0,
		Leaves:        rng.Uint32(),
		Cohorts:       rng.Uint32(),
		FleetStreams:  rng.Uint64(),
	}
}

func randMirror(rng *rand.Rand) Mirror {
	m := Mirror{
		Agg:           randName(rng),
		Inc:           rng.Uint64(),
		Seq:           rng.Uint64(),
		SentAt:        clock.Time(rng.Int63()),
		AssignVersion: rng.Uint64(),
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		m.Leaves = append(m.Leaves, MirrorLeaf{
			ID:       randName(rng),
			Addr:     randName(rng),
			Region:   randRegion(rng),
			Weight:   rng.Float64(),
			Inc:      rng.Uint64(),
			LastSeq:  rng.Uint64(),
			LastAt:   clock.Time(rng.Int63()),
			EchoedAV: rng.Uint64(),
			Live:     uint8(rng.Intn(int(leafDead) + 1)),
		})
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		filter := randName(rng) + "/#"
		c := MirrorCohort{
			Filter:           filter,
			Owner:            randName(rng),
			Orphaned:         rng.Intn(2) == 0,
			EpochLeaf:        randName(rng),
			EpochInc:         rng.Uint64(),
			CarriedSuspects:  rng.Uint64(),
			CarriedTrusts:    rng.Uint64(),
			CarriedOfflines:  rng.Uint64(),
			CarriedEvictions: rng.Uint64(),
			// Last.Filter mirrors the cohort filter on decode, and the
			// notable ring is deliberately not mirrored.
			Last: CohortDigest{
				Filter:    filter,
				Streams:   rng.Uint32(),
				Trusted:   rng.Uint32(),
				Suspected: rng.Uint32(),
				Offline:   rng.Uint32(),
				Suspects:  rng.Uint64(),
				Trusts:    rng.Uint64(),
				Offlines:  rng.Uint64(),
				Evictions: rng.Uint64(),
				TDSum:     rng.Float64() * 100,
				MRSum:     rng.Float64(),
				QAPMin:    rng.Float64(),
				Tuned:     rng.Uint32(),
				Omitted:   rng.Uint32(),
			},
			UpdatedAt: clock.Time(rng.Int63()),
		}
		m.Cohorts = append(m.Cohorts, c)
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		h := RedelegationRecord{
			Version:      rng.Uint64(),
			At:           clock.Time(rng.Int63()),
			Dead:         randName(rng),
			MovedOmitted: rng.Uint32(),
		}
		for j, k := 0, rng.Intn(3); j < k; j++ {
			h.Moved = append(h.Moved, AssignEntry{Cohort: randName(rng) + "/#", Owner: randName(rng)})
		}
		m.History = append(m.History, h)
	}
	return m
}

func randAck(rng *rand.Rand) Ack {
	return Ack{
		Agg:           randName(rng),
		Leader:        rng.Intn(2) == 0,
		AssignVersion: rng.Uint64(),
		EchoSeq:       rng.Uint64(),
		SentAt:        clock.Time(rng.Int63()),
	}
}

// TestHARoundTrip extends the codec property test to the HA kinds:
// Marshal∘Decode is the identity and re-encoding is canonical.
func TestHARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		p := randPeerBeat(rng)
		b := p.Marshal()
		msg, err := Decode(b)
		if err != nil {
			t.Fatalf("iter %d: decode peer beat: %v", i, err)
		}
		if msg.PeerBeat == nil || msg.Digest != nil || msg.Assign != nil || msg.Mirror != nil || msg.Ack != nil {
			t.Fatalf("iter %d: peer beat decoded into the wrong arm: %+v", i, msg)
		}
		if !reflect.DeepEqual(*msg.PeerBeat, p) {
			t.Fatalf("iter %d: lossy peer beat round trip:\n have %+v\n want %+v", i, *msg.PeerBeat, p)
		}
		if !bytes.Equal(msg.PeerBeat.Marshal(), b) {
			t.Fatalf("iter %d: peer beat re-encode is not canonical", i)
		}
	}
	for i := 0; i < 500; i++ {
		m := randMirror(rng)
		b := m.Marshal()
		msg, err := Decode(b)
		if err != nil {
			t.Fatalf("iter %d: decode mirror: %v", i, err)
		}
		if msg.Mirror == nil {
			t.Fatalf("iter %d: mirror decoded into the wrong arm", i)
		}
		if !reflect.DeepEqual(*msg.Mirror, m) {
			t.Fatalf("iter %d: lossy mirror round trip:\n have %+v\n want %+v", i, *msg.Mirror, m)
		}
		if !bytes.Equal(msg.Mirror.Marshal(), b) {
			t.Fatalf("iter %d: mirror re-encode is not canonical", i)
		}
	}
	for i := 0; i < 500; i++ {
		k := randAck(rng)
		b := k.Marshal()
		msg, err := Decode(b)
		if err != nil {
			t.Fatalf("iter %d: decode ack: %v", i, err)
		}
		if msg.Ack == nil {
			t.Fatalf("iter %d: ack decoded into the wrong arm", i)
		}
		if !reflect.DeepEqual(*msg.Ack, k) {
			t.Fatalf("iter %d: lossy ack round trip:\n have %+v\n want %+v", i, *msg.Ack, k)
		}
		if !bytes.Equal(msg.Ack.Marshal(), b) {
			t.Fatalf("iter %d: ack re-encode is not canonical", i)
		}
	}
	// Decode also handles the legacy kinds.
	d := randDigest(rng)
	if msg, err := Decode(d.Marshal()); err != nil || msg.Digest == nil || !reflect.DeepEqual(*msg.Digest, d) {
		t.Fatalf("Decode(digest) = %+v, %v", msg, err)
	}
	a := randAssignment(rng)
	if msg, err := Decode(a.Marshal()); err != nil || msg.Assign == nil || !reflect.DeepEqual(*msg.Assign, a) {
		t.Fatalf("Decode(assignment) = %+v, %v", msg, err)
	}
}

// TestDecodeRejects covers the HA kinds' failure modes: truncation at
// every length, trailing bytes, unknown flag bits, illegal liveness,
// over-bound counts.
func TestDecodeRejects(t *testing.T) {
	beat := PeerBeat{Agg: "agg-a", Region: "eu", Inc: 1, Seq: 5, SentAt: 100,
		AssignVersion: 2, Leader: true, Ready: true, Leaves: 3, Cohorts: 12, FleetStreams: 10_000}
	mirror := Mirror{Agg: "agg-a", Inc: 1, Seq: 6, SentAt: 100, AssignVersion: 2,
		Leaves: []MirrorLeaf{{ID: "eu/leaf-0", Addr: "eu/leaf-0", Region: "eu", Weight: 1, Inc: 1, LastSeq: 4, LastAt: 90, Live: uint8(leafAlive)}},
		Cohorts: []MirrorCohort{{Filter: "eu/cl-0/#", Owner: "eu/leaf-0", EpochLeaf: "eu/leaf-0", EpochInc: 1,
			Last: CohortDigest{Filter: "eu/cl-0/#", Streams: 7, QAPMin: 1}, UpdatedAt: 95}},
		History: []RedelegationRecord{{Version: 2, At: 80, Dead: "eu/leaf-9",
			Moved: []AssignEntry{{Cohort: "eu/cl-9/#", Owner: "eu/leaf-0"}}}}}
	ack := Ack{Agg: "agg-a", Leader: true, AssignVersion: 2, EchoSeq: 9, SentAt: 100}

	for name, good := range map[string][]byte{
		"peerBeat": beat.Marshal(),
		"mirror":   mirror.Marshal(),
		"ack":      ack.Marshal(),
	} {
		for n := 0; n < len(good); n++ {
			if _, err := Decode(good[:n]); err == nil {
				t.Fatalf("%s: truncation to %d bytes accepted", name, n)
			}
		}
		if _, err := Decode(append(append([]byte(nil), good...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
	}

	// Unknown flag bits: flags byte follows agg+region strings and four
	// u64s in a beat.
	b := beat.Marshal()
	flagsOff := 4 + 2 + len(beat.Agg) + 2 + len(beat.Region) + 8*4
	b[flagsOff] |= 0x80
	if _, err := Decode(b); err == nil {
		t.Fatal("peer beat with unknown flag bit accepted")
	}

	// Illegal liveness value in a mirror leaf row (last byte of the row).
	badLive := mirror
	badLive.Leaves = []MirrorLeaf{{ID: "x", Live: uint8(leafDead) + 1}}
	// Marshal doesn't validate Live (it is a trusted internal enum), so
	// the decoder must.
	if _, err := Decode(badLive.Marshal()); err == nil {
		t.Fatal("mirror leaf with out-of-range liveness accepted")
	}

	// Over-bound encode panics, same contract as the legacy kinds.
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	long := strings.Repeat("x", wire.MaxNameLen+1)
	mustPanic("long beat agg", func() { PeerBeat{Agg: long}.Marshal() })
	mustPanic("too many mirror leaves", func() {
		Mirror{Agg: "a", Leaves: make([]MirrorLeaf, MaxMirrorLeaves+1)}.Marshal()
	})
	mustPanic("too many mirror cohorts", func() {
		Mirror{Agg: "a", Cohorts: make([]MirrorCohort, MaxMirrorCohorts+1)}.Marshal()
	})
	mustPanic("too many mirror history records", func() {
		Mirror{Agg: "a", History: make([]RedelegationRecord, MaxMirrorHistory+1)}.Marshal()
	})
	mustPanic("long ack agg", func() { Ack{Agg: long}.Marshal() })
	mustPanic("mirror over byte budget", func() {
		// Per-record counts are in bounds but long names push the
		// encoding past wire.MaxDatagram; the chunker must never build this.
		big := Mirror{Agg: "a"}
		wide := strings.Repeat("n", wire.MaxNameLen)
		for i := 0; i < MaxMirrorLeaves; i++ {
			big.Leaves = append(big.Leaves, MirrorLeaf{ID: wide, Addr: wide, Region: "eu", Live: uint8(leafAlive)})
		}
		big.Marshal()
	})
}
