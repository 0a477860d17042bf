package persist

import (
	"bytes"
	"encoding/hex"
	"flag"
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

// TestGoldenBytes pins the snapshot and journal file formats byte for
// byte: a snapshot with a detector window and a gossip record, an empty
// snapshot, a three-record journal and a header-only journal. The
// fixtures were generated at commit e5c2447 (the private reader, before
// the port onto internal/wire) with
//
//	go test ./internal/persist -run TestGoldenBytes -update-golden
//
// which writes hex(EncodeSnapshot(s)) and hex(EncodeJournalHeader(7, 50 s)
// + AppendDeltaRecord per delta); this file uses only names that exist at
// that commit, so it can be copied there to check.
func TestGoldenBytes(t *testing.T) {
	full := sampleSnapshot()
	full.Epoch = 12
	for name, want := range map[string]*Snapshot{
		"snapshot_full":    full,
		"snapshot_minimal": {Streams: []StreamRecord{}},
	} {
		got, err := DecodeSnapshot(checkGolden(t, name, EncodeSnapshot(want)))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded\n %+v\nwant\n %+v", name, got, want)
		}
	}
	for name, want := range map[string][]Delta{
		"journal_three":   sampleDeltas(),
		"journal_minimal": nil,
	} {
		epoch, got, truncated, err := DecodeJournal(checkGolden(t, name, encodeJournal(7, want)))
		if err != nil || truncated || epoch != 7 {
			t.Fatalf("%s: epoch=%d truncated=%v err=%v", name, epoch, truncated, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded\n %+v\nwant\n %+v", name, got, want)
		}
	}
}
