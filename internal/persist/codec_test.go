package persist

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		TakenAt:  clock.Time(90 * clock.Second),
		WallNano: 1_700_000_000_123_456_789,
		Streams: []StreamRecord{
			{
				Peer: "srv-000001", Inc: 3, Phase: PhaseTrusted, Seen: true,
				LastSeq: 412, LastArrival: clock.Time(89 * clock.Second),
				Heartbeats: 412, Stale: 2, Mistakes: 1, MistakeTime: 300 * clock.Millisecond,
				Det: &core.SFDState{
					Margin:    150 * clock.Millisecond,
					FP:        clock.Time(89*clock.Second + 250*clock.Millisecond),
					State:     core.StateStable,
					SlotIndex: 4,
					LastSeq:   412,
					LastSend:  clock.Time(89 * clock.Second),
					LastDelay: 12 * clock.Millisecond,
					HaveSeq:   true,
					GapAvg:    0.03,
					GapAvgOK:  true,
					StepScale: 0.5,
					LastDir:   -1,
					Window: []detector.ArrivalSample{
						{Seq: 410, Recv: clock.Time(87 * clock.Second)},
						{Seq: 411, Recv: clock.Time(88 * clock.Second)},
						{Seq: 412, Recv: clock.Time(89 * clock.Second)},
					},
				},
			},
			{
				Peer: "srv-000002", Inc: 1, Phase: PhaseSuspected, Seen: true,
				LastSeq: 77, LastArrival: clock.Time(60 * clock.Second),
				SuspectSince: clock.Time(70 * clock.Second), Heartbeats: 77,
			},
			{Peer: "srv-000003", Phase: PhaseOffline, Seen: true, Inc: 9},
		},
		Gossip: &GossipRecord{
			ID:          "mon-a:7946",
			MistakeRate: 0.125,
			Seq:         991,
			Weights:     []MonitorWeight{{Monitor: "mon-b:7946", Weight: 0.75}},
			Opinions: []OpinionRecord{
				{Subject: "srv-000002", Monitor: "mon-b:7946", State: 1, Inc: 1,
					Level: 2.5, Seq: 88, At: clock.Time(85 * clock.Second)},
			},
			Verdicts: []VerdictRecord{{Subject: "srv-000002", State: 1}},
			Suspects: []string{"srv-000002", "srv-000003"},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	data := EncodeSnapshot(want)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestSnapshotRoundTripEmpty(t *testing.T) {
	want := &Snapshot{Epoch: 1, TakenAt: 5, WallNano: 6}
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.Epoch != 1 || got.TakenAt != 5 || got.WallNano != 6 || len(got.Streams) != 0 || got.Gossip != nil {
		t.Fatalf("empty round trip mismatch: %+v", got)
	}
}

func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	data := EncodeSnapshot(sampleSnapshot())

	// Every single-bit flip must be caught by the trailing checksum (or
	// the header check) — never decoded silently, never a panic.
	for _, pos := range []int{0, 5, 7, headerLen + 3, len(data) / 2, len(data) - 5, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Errorf("bit flip at %d decoded successfully", pos)
		}
	}

	// Truncations at every length must error, not panic.
	for n := 0; n < len(data); n += 7 {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Errorf("truncation to %d decoded successfully", n)
		}
	}

	// Trailing garbage.
	if _, err := DecodeSnapshot(append(append([]byte(nil), data...), 0xFF)); err == nil {
		t.Error("trailing byte decoded successfully")
	}
}

func TestDecodeSnapshotVersionSkew(t *testing.T) {
	data := EncodeSnapshot(sampleSnapshot())
	mut := append([]byte(nil), data...)
	mut[4], mut[5] = 0x00, 0x02 // version 2
	if _, err := DecodeSnapshot(mut); !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: got %v, want ErrVersion", err)
	}
	// Wrong kind (journal header on a snapshot decode).
	mut = append([]byte(nil), data...)
	mut[6] = kindJournal
	if _, err := DecodeSnapshot(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong kind: got %v, want ErrCorrupt", err)
	}
}

func sampleDeltas() []Delta {
	return []Delta{
		{Kind: DeltaPhase, Peer: "srv-000002", At: clock.Time(70 * clock.Second), Inc: 1, Phase: PhaseSuspected},
		{Kind: DeltaPhase, Peer: "srv-000002", At: clock.Time(71 * clock.Second), Inc: 1, Phase: PhaseTrusted},
		{Kind: DeltaEvict, Peer: "srv-000009", At: clock.Time(72 * clock.Second), Inc: 4},
	}
}

func encodeJournal(epoch uint64, deltas []Delta) []byte {
	b := EncodeJournalHeader(epoch, clock.Time(50*clock.Second))
	for _, d := range deltas {
		b = AppendDeltaRecord(b, d)
	}
	return b
}

func TestJournalRoundTrip(t *testing.T) {
	want := sampleDeltas()
	epoch, got, truncated, err := DecodeJournal(encodeJournal(7, want))
	if err != nil || truncated {
		t.Fatalf("DecodeJournal: err=%v truncated=%v", err, truncated)
	}
	if epoch != 7 {
		t.Fatalf("epoch = %d, want 7", epoch)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("journal round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestJournalTornTail(t *testing.T) {
	deltas := sampleDeltas()
	full := encodeJournal(3, deltas)
	headerOnly := len(EncodeJournalHeader(3, 0))

	// Every truncation point inside the record area yields the longest
	// valid prefix — never an error, never a panic.
	for n := headerOnly; n < len(full); n++ {
		_, got, truncated, err := DecodeJournal(full[:n])
		if err != nil {
			t.Fatalf("truncate to %d: %v", n, err)
		}
		if n < len(full) && !truncated && len(got) == len(deltas) {
			t.Fatalf("truncate to %d: full decode reported", n)
		}
		for i, d := range got {
			if !reflect.DeepEqual(d, deltas[i]) {
				t.Fatalf("truncate to %d: prefix record %d mismatch", n, i)
			}
		}
	}

	// A bit flip inside a record's payload drops that record and the rest
	// (the CRC catches it) but keeps the prefix.
	mut := append([]byte(nil), full...)
	mut[len(mut)-3] ^= 0x01
	_, got, truncated, err := DecodeJournal(mut)
	if err != nil || !truncated {
		t.Fatalf("flip: err=%v truncated=%v", err, truncated)
	}
	if len(got) != len(deltas)-1 {
		t.Fatalf("flip: got %d records, want %d", len(got), len(deltas)-1)
	}
}

func TestSnapshotRebase(t *testing.T) {
	s := sampleSnapshot()
	s.Streams[1].SuspectSince = 0 // unset sentinel must stay 0
	shift := -50 * clock.Second
	s.Rebase(shift)
	if s.TakenAt != clock.Time(40*clock.Second) {
		t.Errorf("TakenAt = %v", s.TakenAt)
	}
	if got := s.Streams[0].Det.Window[0].Recv; got != clock.Time(37*clock.Second) {
		t.Errorf("window recv = %v", got)
	}
	if s.Streams[1].SuspectSince != 0 {
		t.Errorf("zero sentinel rebased to %v", s.Streams[1].SuspectSince)
	}
	if got := s.Gossip.Opinions[0].At; got != clock.Time(35*clock.Second) {
		t.Errorf("opinion at = %v", got)
	}
}

func TestSnapshotApply(t *testing.T) {
	s := &Snapshot{Streams: []StreamRecord{
		{Peer: "a", Inc: 1, Phase: PhaseTrusted},
		{Peer: "b", Inc: 2, Phase: PhaseTrusted},
		{Peer: "c", Inc: 1, Phase: PhaseSuspected},
	}}
	s.Apply([]Delta{
		{Kind: DeltaPhase, Peer: "a", Phase: PhaseSuspected, Inc: 1, At: 100},
		{Kind: DeltaEvict, Peer: "b"},
		{Kind: DeltaPhase, Peer: "c", Phase: PhaseTrusted, Inc: 1},
		{Kind: DeltaPhase, Peer: "d", Phase: PhaseSuspected, Inc: 5, At: 200}, // post-snapshot stream
		{Kind: DeltaPhase, Peer: "a", Phase: PhaseTrusted, Inc: 2},            // newest wins, inc ratchets
	})
	byPeer := map[string]StreamRecord{}
	for _, r := range s.Streams {
		byPeer[r.Peer] = r
	}
	if len(byPeer) != 3 {
		t.Fatalf("stream count = %d, want 3 (%+v)", len(byPeer), byPeer)
	}
	if a := byPeer["a"]; a.Phase != PhaseTrusted || a.Inc != 2 {
		t.Errorf("a = %+v", a)
	}
	if _, ok := byPeer["b"]; ok {
		t.Error("b not evicted")
	}
	if c := byPeer["c"]; c.Phase != PhaseTrusted {
		t.Errorf("c = %+v", c)
	}
	if d := byPeer["d"]; d.Phase != PhaseSuspected || d.Inc != 5 || d.SuspectSince != 200 || !d.Seen {
		t.Errorf("d = %+v", d)
	}
}

func TestDecodeSnapshotImplausibleCounts(t *testing.T) {
	// A tiny file claiming 4 billion streams must be rejected before any
	// large allocation happens.
	b := appendHeader(nil, kindSnapshot)
	b = append(b, make([]byte, 8+8+8)...) // epoch, takenAt, wallNano
	b = append(b, 0xFF, 0xFF, 0xFF, 0xFF) // streamCount
	b = append(b, bytes.Repeat([]byte{0}, 8)...)
	var crc [4]byte
	b = append(b, crc[:]...)
	if _, err := DecodeSnapshot(b); err == nil {
		t.Fatal("implausible stream count decoded")
	}
}
