package federate

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

// marshalUrgent encodes d as one urgent datagram, the way the leaf's
// end-of-tick push does, with Marshal's bounds contract.
func marshalUrgent(d Digest) []byte {
	return d.pack(kindUrgent, func() uint64 { return d.Seq }).One()
}

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

// TestGoldenBytes pins all six federation records byte for byte, one
// fully-populated and one minimal instance each. The fixtures of the
// first five were generated at commit e5c2447 (the hand-rolled codec,
// before the port onto internal/wire) with
//
//	go test ./internal/federate -run TestGoldenBytes -update-golden
//
// which writes hex(x.Marshal()) for each case below; apart from the two
// urgent cases, added with kindUrgent, this file uses only names that
// exist at that commit, so it can be copied there to check.
func TestGoldenBytes(t *testing.T) {
	row := CohortDigest{Filter: "eu/cluster-3/#", Streams: 1000, Trusted: 990, Suspected: 7, Offline: 3,
		Suspects: 12, Trusts: 5, Offlines: 3, Evictions: 1,
		TDSum: 123.5, MRSum: 0.25, QAPMin: 0.97, Tuned: 800, Omitted: 4}
	withNotables := row
	withNotables.Notable = []Notable{
		{Peer: "eu/cluster-3/host-9/api", Type: 1, At: 999, Inc: 1},
		{Peer: "eu/cluster-3/hôst-2", Type: 3, At: 1 << 41, Inc: 1 << 63},
	}
	cases := []struct {
		name string
		msg  Message
	}{
		{"digest_full", Message{Digest: &Digest{Leaf: "eu/leaf-1", Region: "eu", Inc: 2, Seq: 41,
			SentAt: 1 << 40, Weight: 0.875, AssignVersion: 3,
			Cohorts: []CohortDigest{withNotables, {Filter: "eu/cluster-4/#", QAPMin: 1}}}}},
		{"digest_minimal", Message{Digest: &Digest{Leaf: "l"}}},
		{"assign_full", Message{Assign: &Assignment{Agg: "agg-eu", Version: 7, Entries: []AssignEntry{
			{Cohort: "eu/cluster-3/#", Owner: "eu/leaf-2"},
			{Cohort: "eu/cluster-4/#", Owner: "eu/leaf-3"}}}}},
		{"assign_minimal", Message{Assign: &Assignment{}}},
		{"peerbeat_full", Message{PeerBeat: &PeerBeat{Agg: "agg-a", Region: "eu", Inc: 2, Seq: 17,
			SentAt: 1 << 40, AssignVersion: 3, Leader: true, Ready: true,
			Leaves: 6, Cohorts: 24, FleetStreams: 10_000}}},
		{"peerbeat_minimal", Message{PeerBeat: &PeerBeat{Agg: "a"}}},
		{"mirror_full", Message{Mirror: &Mirror{Agg: "agg-a", Inc: 2, Seq: 18, SentAt: 1 << 40, AssignVersion: 3,
			Leaves: []MirrorLeaf{
				{ID: "eu/leaf-1", Addr: "10.0.0.1:7946", Region: "eu", Weight: 0.875,
					Inc: 1, LastSeq: 40, LastAt: 1<<40 - 5, EchoedAV: 3, Live: uint8(leafSuspected)},
				{ID: "eu/leaf-2", Live: uint8(leafDead)}},
			Cohorts: []MirrorCohort{
				{Filter: row.Filter, Owner: "eu/leaf-1", Orphaned: true, EpochLeaf: "eu/leaf-0", EpochInc: 9,
					CarriedSuspects: 4, CarriedTrusts: 3, CarriedOfflines: 2, CarriedEvictions: 1,
					Last: row, UpdatedAt: 1<<40 - 9},
				{Filter: "eu/cluster-4/#", Last: CohortDigest{Filter: "eu/cluster-4/#"}}},
			History: []RedelegationRecord{
				{Version: 3, At: 1<<40 - 99, Dead: "eu/leaf-0", MovedOmitted: 17, Moved: []AssignEntry{
					{Cohort: "eu/cluster-1/#", Owner: "eu/leaf-1"},
					{Cohort: "eu/cluster-2/#", Owner: "eu/leaf-2"}}},
				{Version: 4, At: 1 << 40, Dead: "eu/leaf-9"}}}}},
		{"mirror_minimal", Message{Mirror: &Mirror{Agg: "a"}}},
		{"ack_full", Message{Ack: &Ack{Agg: "agg-a", Leader: true, AssignVersion: 3, EchoSeq: 41, SentAt: 1 << 40}}},
		{"ack_minimal", Message{Ack: &Ack{Agg: "a"}}},
		// An urgent body is a digest body: rows carry counters and
		// notables, state counts and QoS stay at their zero values.
		{"urgent_full", Message{Urgent: &Digest{Leaf: "eu/leaf-1", Region: "eu", Inc: 2, Seq: 7,
			SentAt: 1 << 40, AssignVersion: 3, Cohorts: []CohortDigest{
				{Filter: row.Filter, Suspects: 12, Trusts: 5, Offlines: 3, Evictions: 1, QAPMin: 1, Omitted: 4,
					Notable: withNotables.Notable},
				{Filter: "eu/cluster-4/#", Trusts: 1, QAPMin: 1}}}}},
		{"urgent_minimal", Message{Urgent: &Digest{Leaf: "l"}}},
	}
	for _, c := range cases {
		var enc []byte
		switch m := c.msg; {
		case m.Digest != nil:
			enc = m.Digest.Marshal()
		case m.Assign != nil:
			enc = m.Assign.Marshal()
		case m.PeerBeat != nil:
			enc = m.PeerBeat.Marshal()
		case m.Mirror != nil:
			enc = m.Mirror.Marshal()
		case m.Ack != nil:
			enc = m.Ack.Marshal()
		case m.Urgent != nil:
			enc = marshalUrgent(*m.Urgent)
		}
		got, err := Decode(checkGolden(t, c.name, enc))
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.msg) {
			t.Fatalf("%s: decoded\n %+v\nwant\n %+v", c.name, got, c.msg)
		}
	}
}
