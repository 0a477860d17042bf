package gossip

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalDigest holds the gossip codec to the contract its doc
// comment borrows from the heartbeat codec: the port is open to the
// world, so no byte sequence may panic the decoder, and anything it
// accepts is within the wire bounds and re-encodes to the exact input
// bytes (canonical encoding). Seeds have the same shapes as the
// federation fuzz corpus: legal digests, truncations, a bit flip,
// version skew, fused datagrams.
func FuzzUnmarshalDigest(f *testing.F) {
	db := Digest{Monitor: "mon-a:7946", Weight: 0.875, Seq: 41, Entries: []Opinion{
		{Subject: "eu/cluster-3/host-9/api", State: StateSuspect, Inc: 1, Level: 1.75},
		{Subject: "10.0.0.1:9000", State: StateOffline, Inc: 7, Level: 12.5},
		{Subject: "s3", State: StateTrusted, Inc: 2},
	}}.Marshal()

	f.Add(db)
	f.Add(Digest{Monitor: "m"}.Marshal()) // minimal: no entries
	f.Add([]byte{})
	f.Add([]byte("SG"))
	f.Add(db[:len(db)/2]) // truncate (chaos KindTruncate default)
	f.Add(db[:len(db)-1]) // one byte short
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	skew := append([]byte(nil), db...)
	skew[2] = 2 // future version
	f.Add(skew)
	flip := append([]byte(nil), db...)
	flip[3] ^= 0x80 // bit flip in the monitor id length
	f.Add(flip)
	f.Add(append(append([]byte(nil), db...), db...)) // fused datagrams

	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := UnmarshalDigest(b)
		if err != nil {
			return // rejected garbage is fine; panicking is not
		}
		if len(d.Entries) > MaxDigestEntries {
			t.Fatalf("accepted digest with %d entries", len(d.Entries))
		}
		for _, e := range d.Entries {
			if e.State > StateOffline {
				t.Fatalf("accepted entry with state %d", e.State)
			}
		}
		if out := d.Marshal(); !bytes.Equal(out, b) {
			t.Fatalf("accepted digest is not canonical:\n in  %x\n out %x", b, out)
		}
	})
}
