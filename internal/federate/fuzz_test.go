package federate

import (
	"bytes"
	"testing"
)

// FuzzDecode hardens the federation codec against hostile datagrams: the
// aggregator's UDP port is open to the world, so across the full
// six-kind surface (digests, assignments, peer beats, mirrors, acks,
// urgent digests) no
// byte sequence may panic the decoder, an accepted message decodes into
// exactly one arm within the wire bounds, and it re-encodes to the exact
// input bytes (canonical encoding — the same contract as the heartbeat
// and gossip codecs). Seeds mirror the heartbeat fuzz corpus: legal
// messages, truncations, bit flips, version skew, fused datagrams.
func FuzzDecode(f *testing.F) {
	d := Digest{
		Leaf: "eu/leaf-1", Region: "eu", Inc: 2, Seq: 41, SentAt: 1 << 40, Weight: 0.875,
		AssignVersion: 3,
		Cohorts: []CohortDigest{
			{Filter: "eu/cluster-3/#", Streams: 1000, Trusted: 990, Suspected: 7, Offline: 3,
				Suspects: 12, Trusts: 5, Offlines: 3, Evictions: 1,
				TDSum: 123.5, MRSum: 0.25, QAPMin: 0.97, Tuned: 800,
				Notable: []Notable{{Peer: "eu/cluster-3/host-9/api", Type: 1, At: 999, Inc: 1}},
				Omitted: 4},
			{Filter: "eu/cluster-4/#", QAPMin: 1},
		},
	}
	db := d.Marshal()
	a := Assignment{Agg: "agg-eu", Version: 7, Entries: []AssignEntry{
		{Cohort: "eu/cluster-3/#", Owner: "eu/leaf-2"},
		{Cohort: "eu/cluster-4/#", Owner: "eu/leaf-3"},
	}}
	ab := a.Marshal()
	pb := PeerBeat{Agg: "agg-a", Region: "eu", Inc: 2, Seq: 17, SentAt: 1 << 40,
		AssignVersion: 3, Leader: true, Ready: true, Leaves: 6, Cohorts: 24, FleetStreams: 10_000}.Marshal()
	mi := Mirror{Agg: "agg-a", Inc: 2, Seq: 18, SentAt: 1 << 40, AssignVersion: 3,
		Leaves: []MirrorLeaf{{ID: "eu/leaf-1", Addr: "eu/leaf-1", Region: "eu", Weight: 1,
			Inc: 1, LastSeq: 40, LastAt: 1<<40 - 5, EchoedAV: 3, Live: 1}},
		Cohorts: []MirrorCohort{{Filter: "eu/cluster-3/#", Owner: "eu/leaf-1", Orphaned: true,
			EpochLeaf: "eu/leaf-1", EpochInc: 1, CarriedSuspects: 4, CarriedOfflines: 2,
			Last: CohortDigest{Filter: "eu/cluster-3/#", Streams: 500, QAPMin: 0.9}, UpdatedAt: 1<<40 - 9}},
		History: []RedelegationRecord{{Version: 3, At: 1<<40 - 99, Dead: "eu/leaf-0",
			Moved: []AssignEntry{{Cohort: "eu/cluster-1/#", Owner: "eu/leaf-1"}}}}}.Marshal()
	ak := Ack{Agg: "agg-a", Leader: true, AssignVersion: 3, EchoSeq: 41, SentAt: 1 << 40}.Marshal()

	f.Add(db)
	f.Add(ab)
	f.Add(pb)
	f.Add(mi)
	f.Add(ak)
	f.Add((Digest{Leaf: "l"}).Marshal()) // minimal: heartbeat-only digest
	f.Add((Assignment{Agg: "a", Version: 1}).Marshal())
	f.Add([]byte{})
	f.Add([]byte("FD"))
	f.Add(db[:len(db)/2]) // truncate (chaos KindTruncate default)
	f.Add(db[:len(db)-1]) // one byte short
	f.Add(ab[:3])         // magic + version, no kind
	f.Add(pb[:len(pb)-1])
	f.Add(mi[:len(mi)/2])
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	skew := append([]byte(nil), db...)
	skew[2] = 2 // future version
	f.Add(skew)
	flip := append([]byte(nil), db...)
	flip[10] ^= 0x80 // bit flip in the leaf name length
	f.Add(flip)
	flagFlip := append([]byte(nil), pb...)
	flagFlip[len(flagFlip)-17] ^= 0xfc // the flags byte: unknown bits set
	f.Add(flagFlip)
	f.Add(append(append([]byte(nil), ak...), 0))     // trailing byte
	f.Add(append(append([]byte(nil), db...), ab...)) // fused datagrams
	f.Add(append(append([]byte(nil), pb...), mi...))
	// Urgent digests (kind 6), appended so the earlier seeds keep their
	// numbers: legal, minimal, truncated, fused with a digest.
	ub := marshalUrgent(d)
	f.Add(ub)
	f.Add(marshalUrgent(Digest{Leaf: "l"}))
	f.Add(ub[:len(ub)-1])
	f.Add(append(append([]byte(nil), ub...), db...))

	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := Decode(b)
		if err != nil {
			return // rejected garbage is fine; panicking is not
		}
		arms := 0
		var out []byte
		if msg.Digest != nil {
			arms++
			if msg.Digest.Leaf == "" {
				t.Fatal("accepted digest with empty leaf id")
			}
			if len(msg.Digest.Cohorts) > MaxDigestCohorts {
				t.Fatalf("accepted digest with %d cohorts", len(msg.Digest.Cohorts))
			}
			out = msg.Digest.Marshal()
		}
		if msg.Assign != nil {
			arms++
			if len(msg.Assign.Entries) > MaxAssignEntries {
				t.Fatalf("accepted assignment with %d entries", len(msg.Assign.Entries))
			}
			out = msg.Assign.Marshal()
		}
		if msg.PeerBeat != nil {
			arms++
			out = msg.PeerBeat.Marshal()
		}
		if msg.Mirror != nil {
			arms++
			m := msg.Mirror
			if len(m.Leaves) > MaxMirrorLeaves || len(m.Cohorts) > MaxMirrorCohorts || len(m.History) > MaxMirrorHistory {
				t.Fatalf("accepted mirror over bounds: %d/%d/%d", len(m.Leaves), len(m.Cohorts), len(m.History))
			}
			out = m.Marshal()
		}
		if msg.Ack != nil {
			arms++
			out = msg.Ack.Marshal()
		}
		if msg.Urgent != nil {
			arms++
			if msg.Urgent.Leaf == "" || len(msg.Urgent.Cohorts) > MaxDigestCohorts {
				t.Fatalf("accepted urgent digest with leaf %q, %d cohorts", msg.Urgent.Leaf, len(msg.Urgent.Cohorts))
			}
			out = marshalUrgent(*msg.Urgent)
		}
		if arms != 1 {
			t.Fatalf("accepted message decodes into %d arms", arms)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("accepted message is not canonical:\n in  %x\n out %x", b, out)
		}
	})
}
