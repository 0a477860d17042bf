package gossip

import (
	"math"
	"strings"
	"testing"

	"repro/internal/wire"
)

func TestDigestRoundTrip(t *testing.T) {
	cases := []Digest{
		{Monitor: "mon-a", Weight: 1, Seq: 1},
		{Monitor: "m", Weight: 0.25, Seq: 42, Entries: []Opinion{
			{Subject: "10.0.0.1:9000", State: StateSuspect, Inc: 0, Level: 1.75},
		}},
		{Monitor: "monitor-θ", Weight: 0.5, Seq: 1 << 40, Entries: []Opinion{
			{Subject: "s1", State: StateTrusted, Inc: 3, Level: 0},
			{Subject: "s2", State: StateOffline, Inc: 7, Level: 12.5},
			{Subject: "üñïçødé", State: StateSuspect, Inc: 1, Level: math.MaxFloat64},
		}},
	}
	for _, want := range cases {
		got, err := UnmarshalDigest(want.Marshal())
		if err != nil {
			t.Fatalf("UnmarshalDigest(%+v): %v", want, err)
		}
		if got.Monitor != want.Monitor || got.Weight != want.Weight || got.Seq != want.Seq {
			t.Fatalf("header mismatch: got %+v want %+v", got, want)
		}
		if len(got.Entries) != len(want.Entries) {
			t.Fatalf("entry count: got %d want %d", len(got.Entries), len(want.Entries))
		}
		for i := range want.Entries {
			if got.Entries[i] != want.Entries[i] {
				t.Fatalf("entry %d: got %+v want %+v", i, got.Entries[i], want.Entries[i])
			}
		}
	}
}

func TestDigestMaxEntriesRoundTrip(t *testing.T) {
	d := Digest{Monitor: "m", Weight: 1, Seq: 9}
	for i := 0; i < MaxDigestEntries; i++ {
		d.Entries = append(d.Entries, Opinion{Subject: "s", State: StateSuspect, Inc: uint64(i)})
	}
	got, err := UnmarshalDigest(d.Marshal())
	if err != nil {
		t.Fatalf("max-size digest rejected: %v", err)
	}
	if len(got.Entries) != MaxDigestEntries {
		t.Fatalf("got %d entries, want %d", len(got.Entries), MaxDigestEntries)
	}
}

func TestDigestRejectsGarbage(t *testing.T) {
	valid := Digest{Monitor: "mon-a", Weight: 1, Seq: 3, Entries: []Opinion{
		{Subject: "s1", State: StateOffline, Inc: 2, Level: 4},
	}}.Marshal()

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":            {},
		"one byte":         {'S'},
		"bad magic":        mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":      mutate(func(b []byte) []byte { b[2] = 99; return b }),
		"truncated header": valid[:10],
		"truncated entry":  valid[:len(valid)-3],
		"trailing bytes":   append(append([]byte(nil), valid...), 0),
		"bad state":        mutate(func(b []byte) []byte { b[len(b)-17] = 3; return b }), // state byte sits 17 from the end (inc+level follow)
		"oversized id len": mutate(func(b []byte) []byte { b[3], b[4] = 0xff, 0xff; return b }),
		"huge entry count": func() []byte {
			d := Digest{Monitor: "m", Weight: 1, Seq: 1}
			b := d.Marshal()
			// Patch count (last 2 bytes of an entryless digest) past the bound.
			b[len(b)-2], b[len(b)-1] = 0xff, 0xff
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := UnmarshalDigest(b); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

func TestDigestMarshalPanicsOnOversize(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	assertPanics("long monitor id", func() {
		Digest{Monitor: strings.Repeat("x", wire.MaxNameLen+1)}.Marshal()
	})
	assertPanics("long subject", func() {
		Digest{Monitor: "m", Entries: []Opinion{{Subject: strings.Repeat("x", wire.MaxNameLen+1)}}}.Marshal()
	})
	assertPanics("too many entries", func() {
		Digest{Monitor: "m", Entries: make([]Opinion, MaxDigestEntries+1)}.Marshal()
	})
}

func TestClampWeight(t *testing.T) {
	const floor = 0.25
	cases := []struct{ in, want float64 }{
		{0.5, 0.5},
		{1, 1},
		{1.5, 1},
		{0, floor},
		{-3, floor},
		{math.NaN(), floor},
		{math.Inf(1), floor},
		{math.Inf(-1), floor},
	}
	for _, c := range cases {
		if got := clampWeight(c.in, floor); got != c.want {
			t.Errorf("clampWeight(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
