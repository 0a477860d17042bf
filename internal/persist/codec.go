package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/wire"
)

// Wire format (all integers big-endian, matching the heartbeat and
// gossip codecs):
//
//	header:  magic "SFDP" | version u16 | kind u8 | reserved u8
//
//	snapshot (kind 1):
//	  header | epoch u64 | takenAt i64 | wallNano i64
//	  | streamCount u32 | stream*
//	  | gossipFlag u8 | [gossip]
//	  | crc32 u32              (IEEE, over everything before it)
//
//	stream:  peer str | inc u64 | phase u8 | seen u8 | lastSeq u64
//	         | lastArrival i64 | suspectSince i64
//	         | heartbeats u64 | stale u64 | mistakes u64 | mistakeTime i64
//	         | detFlag u8 | [det]
//	det:     margin i64 | fp i64 | state u8 | slotIndex u32 | lastSeq u64
//	         | lastSend i64 | lastDelay i64 | haveSeq u8
//	         | gapAvg f64 | gapAvgOK u8 | stepScale f64 | lastDir u8
//	         | sampleCount u32 | (seq u64, recv i64)*
//	gossip:  id str | mistakeRate f64 | seq u64
//	         | weightCount u32 | (mon str, w f64)*
//	         | opinionCount u32 | (subj str, mon str, state u8, inc u64,
//	           level f64, seq u64, at i64)*
//	         | verdictCount u32 | (subj str, state u8)*
//	         | suspectCount u32 | str*
//	str:     len u16 | bytes    (len <= wire.MaxNameLen)
//
//	journal (kind 2):
//	  header | epoch u64 | createdAt i64 | record*
//	record:  payloadLen u32 | crc32(payload) u32 | payload
//	payload: deltaKind u8 | at i64 | inc u64 | phase u8 | peer str
//
// A snapshot is valid only as a whole (single trailing checksum: a
// torn write invalidates the file and recovery falls back to the
// previous epoch). Journal records are checksummed individually so a
// crash mid-append loses only the torn tail — the valid prefix still
// applies.
const (
	version      = 1
	kindSnapshot = 1
	kindJournal  = 2
	headerLen    = 4 + 2 + 1 + 1

	// Decode-side sanity bounds: a corrupted count must not drive a huge
	// allocation before the per-entry bounds checks reject it.
	maxStreams = 1 << 22
	maxSamples = 1 << 20
	maxEntries = 1 << 22
)

var magic = [4]byte{'S', 'F', 'D', 'P'}

// Decode errors. ErrCorrupt covers checksum mismatches and truncation;
// ErrVersion unknown format versions — both mean "fall back to an older
// epoch or cold start", never a panic.
var (
	ErrCorrupt = errors.New("persist: corrupt or truncated state file")
	ErrVersion = errors.New("persist: unsupported state format version")
)

// EncodeSnapshot serializes s (checksummed, ready to write to disk).
func EncodeSnapshot(s *Snapshot) []byte {
	b := make([]byte, 0, 64+len(s.Streams)*96)
	b = appendHeader(b, kindSnapshot)
	b = wire.AppendU64(b, s.Epoch)
	b = wire.AppendU64(b, uint64(s.TakenAt))
	b = wire.AppendU64(b, uint64(s.WallNano))
	b = wire.AppendU32(b, uint32(len(s.Streams)))
	for i := range s.Streams {
		b = appendStream(b, &s.Streams[i])
	}
	if s.Gossip != nil {
		b = append(b, 1)
		b = appendGossip(b, s.Gossip)
	} else {
		b = append(b, 0)
	}
	return wire.AppendU32(b, crc32.ChecksumIEEE(b))
}

// DecodeSnapshot parses and validates a snapshot file image.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if err := checkHeader(data, kindSnapshot); err != nil {
		return nil, err
	}
	if len(data) < headerLen+4 {
		return nil, ErrCorrupt
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	r := wire.NewReader(body[headerLen:])
	s := &Snapshot{
		Epoch:    r.U64(),
		TakenAt:  clock.Time(r.U64()),
		WallNano: int64(r.U64()),
	}
	n := r.U32()
	if n > maxStreams || uint64(n)*2 > uint64(len(body)) {
		return nil, fmt.Errorf("%w: implausible stream count %d", ErrCorrupt, n)
	}
	s.Streams = make([]StreamRecord, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		rec, err := readStream(r)
		if err != nil {
			return nil, err
		}
		s.Streams = append(s.Streams, rec)
	}
	if r.U8() == 1 {
		g, err := readGossip(r)
		if err != nil {
			return nil, err
		}
		s.Gossip = g
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

func appendStream(b []byte, rec *StreamRecord) []byte {
	b = wire.AppendStr(b, rec.Peer)
	b = wire.AppendU64(b, rec.Inc)
	b = append(b, rec.Phase, boolByte(rec.Seen))
	b = wire.AppendU64(b, rec.LastSeq)
	b = wire.AppendU64(b, uint64(rec.LastArrival))
	b = wire.AppendU64(b, uint64(rec.SuspectSince))
	b = wire.AppendU64(b, rec.Heartbeats)
	b = wire.AppendU64(b, rec.Stale)
	b = wire.AppendU64(b, rec.Mistakes)
	b = wire.AppendU64(b, uint64(rec.MistakeTime))
	if rec.Det == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	d := rec.Det
	b = wire.AppendU64(b, uint64(d.Margin))
	b = wire.AppendU64(b, uint64(d.FP))
	b = append(b, uint8(d.State))
	b = wire.AppendU32(b, uint32(d.SlotIndex))
	b = wire.AppendU64(b, d.LastSeq)
	b = wire.AppendU64(b, uint64(d.LastSend))
	b = wire.AppendU64(b, uint64(d.LastDelay))
	b = append(b, boolByte(d.HaveSeq))
	b = wire.AppendF64(b, d.GapAvg)
	b = append(b, boolByte(d.GapAvgOK))
	b = wire.AppendF64(b, d.StepScale)
	b = append(b, uint8(d.LastDir))
	b = wire.AppendU32(b, uint32(len(d.Window)))
	for _, w := range d.Window {
		b = wire.AppendU64(b, w.Seq)
		b = wire.AppendU64(b, uint64(w.Recv))
	}
	return b
}

func readStream(r *wire.Reader) (StreamRecord, error) {
	rec := StreamRecord{
		Peer:         r.Str(),
		Inc:          r.U64(),
		Phase:        r.U8(),
		Seen:         r.U8() == 1,
		LastSeq:      r.U64(),
		LastArrival:  clock.Time(r.U64()),
		SuspectSince: clock.Time(r.U64()),
		Heartbeats:   r.U64(),
		Stale:        r.U64(),
		Mistakes:     r.U64(),
		MistakeTime:  clock.Duration(r.U64()),
	}
	if rec.Phase > PhaseOffline {
		return rec, fmt.Errorf("%w: phase %d out of range", ErrCorrupt, rec.Phase)
	}
	if r.U8() == 1 {
		d := &core.SFDState{
			Margin:    clock.Duration(r.U64()),
			FP:        clock.Time(r.U64()),
			State:     core.State(r.U8()),
			SlotIndex: int(r.U32()),
			LastSeq:   r.U64(),
			LastSend:  clock.Time(r.U64()),
			LastDelay: clock.Duration(r.U64()),
			HaveSeq:   r.U8() == 1,
			GapAvg:    r.F64(),
			GapAvgOK:  r.U8() == 1,
			StepScale: r.F64(),
			LastDir:   int8(r.U8()),
		}
		n := r.U32()
		if n > maxSamples || int(n)*16 > r.Remaining() {
			return rec, fmt.Errorf("%w: implausible sample count %d", ErrCorrupt, n)
		}
		d.Window = make([]detector.ArrivalSample, 0, n)
		for i := uint32(0); i < n; i++ {
			d.Window = append(d.Window, detector.ArrivalSample{
				Seq: r.U64(), Recv: clock.Time(r.U64()),
			})
		}
		rec.Det = d
	}
	return rec, nil
}

func appendGossip(b []byte, g *GossipRecord) []byte {
	b = wire.AppendStr(b, g.ID)
	b = wire.AppendF64(b, g.MistakeRate)
	b = wire.AppendU64(b, g.Seq)
	b = wire.AppendU32(b, uint32(len(g.Weights)))
	for _, w := range g.Weights {
		b = wire.AppendStr(b, w.Monitor)
		b = wire.AppendF64(b, w.Weight)
	}
	b = wire.AppendU32(b, uint32(len(g.Opinions)))
	for _, o := range g.Opinions {
		b = wire.AppendStr(b, o.Subject)
		b = wire.AppendStr(b, o.Monitor)
		b = append(b, o.State)
		b = wire.AppendU64(b, o.Inc)
		b = wire.AppendF64(b, o.Level)
		b = wire.AppendU64(b, o.Seq)
		b = wire.AppendU64(b, uint64(o.At))
	}
	b = wire.AppendU32(b, uint32(len(g.Verdicts)))
	for _, v := range g.Verdicts {
		b = wire.AppendStr(b, v.Subject)
		b = append(b, v.State)
	}
	b = wire.AppendU32(b, uint32(len(g.Suspects)))
	for _, s := range g.Suspects {
		b = wire.AppendStr(b, s)
	}
	return b
}

func readGossip(r *wire.Reader) (*GossipRecord, error) {
	g := &GossipRecord{
		ID:          r.Str(),
		MistakeRate: r.F64(),
		Seq:         r.U64(),
	}
	n := r.U32()
	if n > maxEntries || int(n)*10 > r.Remaining() {
		return nil, fmt.Errorf("%w: implausible weight count %d", ErrCorrupt, n)
	}
	g.Weights = make([]MonitorWeight, 0, n)
	for i := uint32(0); i < n; i++ {
		g.Weights = append(g.Weights, MonitorWeight{
			Monitor: r.Str(), Weight: r.F64(),
		})
	}
	n = r.U32()
	if n > maxEntries || int(n)*37 > r.Remaining() {
		return nil, fmt.Errorf("%w: implausible opinion count %d", ErrCorrupt, n)
	}
	g.Opinions = make([]OpinionRecord, 0, n)
	for i := uint32(0); i < n; i++ {
		g.Opinions = append(g.Opinions, OpinionRecord{
			Subject: r.Str(),
			Monitor: r.Str(),
			State:   r.U8(),
			Inc:     r.U64(),
			Level:   r.F64(),
			Seq:     r.U64(),
			At:      clock.Time(r.U64()),
		})
	}
	n = r.U32()
	if n > maxEntries || int(n)*3 > r.Remaining() {
		return nil, fmt.Errorf("%w: implausible verdict count %d", ErrCorrupt, n)
	}
	g.Verdicts = make([]VerdictRecord, 0, n)
	for i := uint32(0); i < n; i++ {
		g.Verdicts = append(g.Verdicts, VerdictRecord{Subject: r.Str(), State: r.U8()})
	}
	n = r.U32()
	if n > maxEntries || int(n)*2 > r.Remaining() {
		return nil, fmt.Errorf("%w: implausible suspect count %d", ErrCorrupt, n)
	}
	g.Suspects = make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		g.Suspects = append(g.Suspects, r.Str())
	}
	return g, nil
}

// EncodeJournalHeader serializes the journal file preamble for epoch.
func EncodeJournalHeader(epoch uint64, createdAt clock.Time) []byte {
	b := appendHeader(make([]byte, 0, headerLen+16), kindJournal)
	b = wire.AppendU64(b, epoch)
	return wire.AppendU64(b, uint64(createdAt))
}

// AppendDeltaRecord serializes one length-prefixed, checksummed journal
// record onto b.
func AppendDeltaRecord(b []byte, d Delta) []byte {
	payload := make([]byte, 0, 21+len(d.Peer))
	payload = append(payload, d.Kind)
	payload = wire.AppendU64(payload, uint64(d.At))
	payload = wire.AppendU64(payload, d.Inc)
	payload = append(payload, d.Phase)
	payload = wire.AppendStr(payload, d.Peer)
	b = wire.AppendU32(b, uint32(len(payload)))
	b = wire.AppendU32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// DecodeJournal parses a journal file image: the header plus every valid
// record up to the first truncated or corrupted one. truncated reports
// whether a torn tail was discarded — expected after a crash mid-append,
// so it is not an error.
func DecodeJournal(data []byte) (epoch uint64, deltas []Delta, truncated bool, err error) {
	if err := checkHeader(data, kindJournal); err != nil {
		return 0, nil, false, err
	}
	r := wire.NewReader(data[headerLen:])
	epoch = r.U64()
	r.U64() // createdAt: informational only
	if r.Err() != nil {
		return 0, nil, false, ErrCorrupt
	}
	for r.Remaining() > 0 {
		plen, sum := r.U32(), r.U32()
		if plen < 19 || plen > 8+wire.MaxNameLen+13 {
			return epoch, deltas, true, nil
		}
		payload := r.Take(int(plen))
		if payload == nil || crc32.ChecksumIEEE(payload) != sum {
			return epoch, deltas, true, nil
		}
		pr := wire.NewReader(payload)
		d := Delta{
			Kind:  pr.U8(),
			At:    clock.Time(pr.U64()),
			Inc:   pr.U64(),
			Phase: pr.U8(),
			Peer:  pr.Str(),
		}
		if pr.Done() != nil ||
			d.Kind < DeltaPhase || d.Kind > DeltaEvict || d.Phase > PhaseOffline {
			return epoch, deltas, true, nil
		}
		deltas = append(deltas, d)
	}
	return epoch, deltas, false, nil
}

func appendHeader(b []byte, kind uint8) []byte {
	b = append(b, magic[:]...)
	b = wire.AppendU16(b, version)
	return append(b, kind, 0)
}

func checkHeader(data []byte, kind uint8) error {
	if len(data) < headerLen {
		return ErrCorrupt
	}
	if [4]byte(data[:4]) != magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != version {
		return fmt.Errorf("%w: got %d, supported %d", ErrVersion, v, version)
	}
	if data[6] != kind {
		return fmt.Errorf("%w: wrong file kind %d", ErrCorrupt, data[6])
	}
	return nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
