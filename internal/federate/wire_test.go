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

// randDigest builds a random but wire-legal digest (no NaNs, bounded
// names and counts) for the round-trip property test.
func randDigest(rng *rand.Rand) Digest {
	d := Digest{
		Leaf:          randName(rng),
		Region:        randRegion(rng),
		Inc:           rng.Uint64(),
		Seq:           rng.Uint64(),
		SentAt:        clock.Time(rng.Int63()),
		Weight:        rng.Float64(),
		AssignVersion: rng.Uint64(),
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		c := CohortDigest{
			Filter:    randName(rng) + "/#",
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
		}
		for j, m := 0, rng.Intn(4); j < m; j++ {
			c.Notable = append(c.Notable, Notable{
				Peer: randName(rng),
				Type: uint8(rng.Intn(9)),
				At:   clock.Time(rng.Int63()),
				Inc:  rng.Uint64(),
			})
		}
		d.Cohorts = append(d.Cohorts, c)
	}
	return d
}

func randName(rng *rand.Rand) string {
	segs := make([]string, 1+rng.Intn(3))
	for i := range segs {
		segs[i] = string(rune('a' + rng.Intn(26)))
	}
	return strings.Join(segs, "/")
}

func randRegion(rng *rand.Rand) string {
	return []string{"", "eu", "us", "apac"}[rng.Intn(4)]
}

func randAssignment(rng *rand.Rand) Assignment {
	a := Assignment{Agg: randName(rng), Version: rng.Uint64()}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		a.Entries = append(a.Entries, AssignEntry{Cohort: randName(rng) + "/#", Owner: randName(rng)})
	}
	return a
}

// TestDigestRoundTrip is the codec property test: Marshal∘Decode is
// the identity for legal digests and assignments, and re-encoding the
// decoded value reproduces the exact bytes (canonical encoding).
func TestDigestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		d := randDigest(rng)
		b := d.Marshal()
		msg, err := Decode(b)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		got := msg.Digest
		if got == nil || msg.Assign != nil {
			t.Fatalf("iter %d: digest decoded into the wrong arm: %+v", i, msg)
		}
		if !reflect.DeepEqual(*got, d) {
			t.Fatalf("iter %d: lossy round trip:\n have %+v\n want %+v", i, *got, d)
		}
		if !bytes.Equal(got.Marshal(), b) {
			t.Fatalf("iter %d: re-encode is not canonical", i)
		}
	}
	for i := 0; i < 500; i++ {
		a := randAssignment(rng)
		b := a.Marshal()
		msg, err := Decode(b)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		got := msg.Assign
		if got == nil || msg.Digest != nil {
			t.Fatalf("iter %d: assignment decoded into the wrong arm: %+v", i, msg)
		}
		if !reflect.DeepEqual(*got, a) {
			t.Fatalf("iter %d: lossy round trip:\n have %+v\n want %+v", i, *got, a)
		}
		if !bytes.Equal(got.Marshal(), b) {
			t.Fatalf("iter %d: re-encode is not canonical", i)
		}
	}
}

// TestDecodeRejectsLeafKinds covers the explicit failure modes: wrong magic,
// version skew, bad kind, truncation at every length, trailing bytes,
// and over-bound counts.
func TestDecodeRejectsLeafKinds(t *testing.T) {
	d := Digest{Leaf: "l1", Region: "eu", Inc: 1, Seq: 9, SentAt: 1000, Weight: 0.5,
		Cohorts: []CohortDigest{{Filter: "eu/#", Streams: 3, QAPMin: 1,
			Notable: []Notable{{Peer: "eu/a", Type: 1, At: 7, Inc: 2}}}}}
	good := d.Marshal()

	if _, err := Decode(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Fatal("wrong magic accepted")
	}
	bad = append([]byte(nil), good...)
	bad[2] = 99 // future version
	if _, err := Decode(bad); err == nil {
		t.Fatal("version skew accepted")
	}
	bad = append([]byte(nil), good...)
	bad[3] = 77 // unknown kind
	if _, err := Decode(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
	for n := 0; n < len(good); n++ {
		if _, err := Decode(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := Decode(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestMarshalBoundsPanic pins the programming-error contract: encoding
// over-bound values panics rather than emitting an illegal datagram.
func TestMarshalBoundsPanic(t *testing.T) {
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
	mustPanic("long leaf", func() { Digest{Leaf: long}.Marshal() })
	mustPanic("too many cohorts", func() {
		Digest{Leaf: "l", Cohorts: make([]CohortDigest, MaxDigestCohorts+1)}.Marshal()
	})
	mustPanic("too many notables", func() {
		Digest{Leaf: "l", Cohorts: []CohortDigest{{Filter: "a/#",
			Notable: make([]Notable, MaxNotablePerCohort+1)}}}.Marshal()
	})
	mustPanic("too many entries", func() {
		Assignment{Agg: "a", Entries: make([]AssignEntry, MaxAssignEntries+1)}.Marshal()
	})
}

// TestDigestBytesGrowWithCohortsNotStreams pins the bandwidth contract:
// the encoded digest size is a function of the cohort count, independent
// of how many streams each cohort summarizes.
func TestDigestBytesGrowWithCohortsNotStreams(t *testing.T) {
	mk := func(cohorts int, streamsPer uint32) int {
		d := Digest{Leaf: "leaf/1", Region: "eu", Inc: 1, Seq: 1, Weight: 1}
		for i := 0; i < cohorts; i++ {
			d.Cohorts = append(d.Cohorts, CohortDigest{
				Filter:  "eu/cl-" + string(rune('a'+i%26)) + "/#",
				Streams: streamsPer, Trusted: streamsPer,
				Suspects: uint64(streamsPer) * 3, QAPMin: 1,
			})
		}
		return len(d.Marshal())
	}
	small := mk(8, 10)
	big := mk(8, 1_000_000)
	if small != big {
		t.Fatalf("digest size depends on stream count: %d bytes at 10 streams vs %d at 1M", small, big)
	}
	if b64 := mk(64, 10); b64 <= small {
		t.Fatalf("digest size did not grow with cohort count: %d (8 cohorts) vs %d (64)", small, b64)
	}
}
