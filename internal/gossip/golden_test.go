package gossip

import (
	"bytes"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.hex from the current encoder")

// checkGolden compares got with the committed hex fixture and returns the
// fixture's bytes, so callers decode what is on disk, not what they just
// encoded.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".hex")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding changed\n got  %x\n want %x", name, got, want)
	}
	return want
}

// TestGoldenBytes pins the gossip wire format v1 byte for byte. The
// fixtures were generated at commit e5c2447 (the hand-rolled codec, before
// the port onto internal/wire) with
//
//	go test ./internal/gossip -run TestGoldenBytes -update-golden
//
// which writes hex(d.Marshal()) for each case below; this file uses only
// names that exist at that commit, so it can be copied there to check.
func TestGoldenBytes(t *testing.T) {
	cases := map[string]Digest{
		"digest_full": {Monitor: "mon-θ:7946", Weight: 0.625, Seq: 1<<40 + 7, Entries: []Opinion{
			{Subject: "10.0.0.1:9000", State: StateTrusted, Inc: 3},
			{Subject: "eu/cluster-3/host-9/api", State: StateSuspect, Inc: 1, Level: 1.75},
			{Subject: "üñïçødé", State: StateOffline, Inc: math.MaxUint64, Level: math.MaxFloat64},
		}},
		"digest_minimal": {},
	}
	for name, d := range cases {
		b := checkGolden(t, name, d.Marshal())
		got, err := UnmarshalDigest(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("%s: decoded\n %+v\nwant\n %+v", name, got, d)
		}
	}
}
