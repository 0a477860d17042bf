package federate

import (
	"errors"
	"fmt"

	"repro/internal/clock"
	"repro/internal/wire"
)

// HA wire records. Three kinds join the original digest/assignment pair
// on the same 'F','D' magic (see wire.go for the framing):
//
// kindPeerBeat (aggregator → aggregator) body — the digest-as-heartbeat
// trick applied one tier up: a compact state summary that doubles as
// the sender's liveness heartbeat in the receiver's SFD registry:
//
//	aggLen(u16) agg  regionLen(u16) region  inc(u64) seq(u64)
//	sentAt(u64) assignVersion(u64) flags(u8: bit0 leader, bit1 ready)
//	leaves(u32) cohorts(u32) fleetStreams(u64)
//
// kindMirror (aggregator → aggregator) body — one anti-entropy chunk of
// the merged fleet view (leaf records, per-cohort epoch counters, the
// versioned assignment table implied by cohort owners, re-delegation
// history). Chunked by encoded size against wire.MaxDatagram as well as
// by record count — with names up to wire.MaxNameLen, counts alone
// cannot keep a chunk inside one UDP datagram. Records may land in any
// chunk; merging is per-record and order-independent:
//
//	aggLen(u16) agg  inc(u64) seq(u64) sentAt(u64) assignVersion(u64)
//	leafCount(u16) cohortCount(u16) histCount(u16)
//	then per leaf:   idLen(u16) id addrLen(u16) addr regionLen(u16) region
//	                 weight(f64) inc(u64) lastSeq(u64) lastAt(u64)
//	                 echoedAV(u64) live(u8)
//	then per cohort: filterLen(u16) filter ownerLen(u16) owner
//	                 flags(u8: bit0 orphaned)
//	                 epochLeafLen(u16) epochLeaf epochInc(u64)
//	                 carried suspects/trusts/offlines/evictions(4×u64)
//	                 streams/trusted/suspected/offline(4×u32)
//	                 suspects/trusts/offlines/evictions(4×u64)
//	                 tdSum(f64) mrSum(f64) qapMin(f64) tuned(u32)
//	                 omitted(u32) updatedAt(u64)
//	then per hist:   version(u64) at(u64) deadLen(u16) dead movedCount(u16)
//	                 movedOmitted(u32)
//	                 then per moved: cohortLen(u16) cohort ownerLen(u16) owner
//
// kindAck (aggregator → leaf) body — a tiny per-digest receipt so leaves
// get liveness feedback on their fire-and-forget digest sends:
//
//	aggLen(u16) agg  flags(u8: bit0 leader) assignVersion(u64)
//	echoSeq(u64) sentAt(u64)
const (
	kindPeerBeat uint8 = 3
	kindMirror   uint8 = 4
	kindAck      uint8 = 5

	// MaxMirrorLeaves bounds one mirror chunk's leaf records.
	MaxMirrorLeaves = 128
	// MaxMirrorCohorts bounds one mirror chunk's cohort records; larger
	// fleet views are chunked across datagrams (merging is monotone, so
	// partial application converges on the next round).
	MaxMirrorCohorts = 128
	// MaxMirrorHistory bounds one mirror chunk's re-delegation records.
	MaxMirrorHistory = 16
)

const (
	beatFlagLeader uint8 = 1 << 0
	beatFlagReady  uint8 = 1 << 1

	cohortFlagOrphaned uint8 = 1 << 0
)

// PeerBeat is an aggregator's compact state heartbeat to its HA peers.
// (Inc, Seq) doubles as the liveness heartbeat in the receiving peer's
// SFD registry, exactly as leaf digests do for leaves.
type PeerBeat struct {
	// Agg is the sending aggregator's identity.
	Agg string
	// Region is informational (beats stay within a region's pair).
	Region string
	// Inc is the aggregator's incarnation, bumped on restart so the
	// peer's detector starts the stream over.
	Inc uint64
	// Seq increases with every beat within one incarnation.
	Seq uint64
	// SentAt is the sender's clock at send (the heartbeat timestamp).
	SentAt clock.Time
	// AssignVersion is the sender's current assignment-table version —
	// the ratchet a promoted standby continues from.
	AssignVersion uint64
	// Leader reports whether the sender currently believes it leads.
	Leader bool
	// Ready is false while the sender is still catching up by
	// anti-entropy after a (re)start; peers exclude non-ready senders
	// from the election so a blank restarted aggregator rejoins as
	// standby instead of reclaiming leadership with an empty view.
	Ready bool
	// Compact state summary, for /fleet peer rows and sanity checks.
	Leaves       uint32
	Cohorts      uint32
	FleetStreams uint64
}

// MirrorLeaf is one leaf record in a mirror chunk.
type MirrorLeaf struct {
	ID       string
	Addr     string
	Region   string
	Weight   float64
	Inc      uint64
	LastSeq  uint64
	LastAt   clock.Time
	EchoedAV uint64
	Live     uint8 // leafLiveness value as seen by the sender
}

// MirrorCohort is one cohort record in a mirror chunk: the owner (one
// row of the versioned assignment table), the current counting epoch,
// and the cumulative transition counters split exactly as the
// aggregator stores them (carried = closed epochs, Last = the live
// epoch) so the receiver can merge without losing a transition.
type MirrorCohort struct {
	Filter   string
	Owner    string
	Orphaned bool

	EpochLeaf string
	EpochInc  uint64

	CarriedSuspects  uint64
	CarriedTrusts    uint64
	CarriedOfflines  uint64
	CarriedEvictions uint64

	// Last is the live epoch's newest digest row. Notable transitions
	// are deliberately not mirrored (the standby hears them first-hand
	// from the dual-sent digests); the encoder ignores the field.
	Last      CohortDigest
	UpdatedAt clock.Time
}

// Mirror is one anti-entropy chunk of an aggregator's fleet view.
type Mirror struct {
	Agg           string
	Inc           uint64
	Seq           uint64
	SentAt        clock.Time
	AssignVersion uint64
	Leaves        []MirrorLeaf
	Cohorts       []MirrorCohort
	History       []RedelegationRecord
}

// Ack is an aggregator's per-digest receipt to a leaf: proof of
// reachability (the leaf's unreachable accounting keys off ack
// silence), plus the sender's leadership claim and table version.
type Ack struct {
	Agg           string
	Leader        bool
	AssignVersion uint64
	// EchoSeq echoes the acknowledged digest's sequence number.
	EchoSeq uint64
	SentAt  clock.Time
}

// Message is one decoded federation datagram: exactly one field is
// non-nil.
type Message struct {
	Digest   *Digest
	Assign   *Assignment
	PeerBeat *PeerBeat
	Mirror   *Mirror
	Ack      *Ack
	// Urgent is a kindUrgent datagram: a Digest carrying only changed
	// cohorts' counters and notables.
	Urgent *Digest
}

// Decode decodes any federation datagram. Malformed input returns
// ErrBadMessage and no input may panic — the port is open to the world,
// the same contract as the heartbeat and gossip codecs (see the fuzz
// target) — and accepted messages re-encode to the exact input bytes.
func Decode(b []byte) (Message, error) {
	msg, err := decode(b)
	if err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return msg, nil
}

func decode(b []byte) (msg Message, err error) {
	if len(b) > wire.MaxDatagram {
		return msg, fmt.Errorf("%d bytes exceeds a datagram", len(b))
	}
	r := wire.NewReader(b)
	if m0, m1 := r.U8(), r.U8(); m0 != wireMagic[0] || m1 != wireMagic[1] {
		return msg, errors.New("bad magic")
	}
	ver, kind := r.U8(), r.U8()
	if r.Err() != nil {
		return msg, r.Err()
	}
	if ver != wireVersion {
		return msg, fmt.Errorf("version %d", ver)
	}
	switch kind {
	case kindDigest:
		msg.Digest, err = decodeDigest(r)
	case kindAssign:
		msg.Assign, err = decodeAssign(r)
	case kindPeerBeat:
		msg.PeerBeat, err = decodePeerBeat(r)
	case kindMirror:
		msg.Mirror, err = decodeMirror(r)
	case kindAck:
		msg.Ack, err = decodeAck(r)
	case kindUrgent:
		msg.Urgent, err = decodeDigest(r)
	default:
		err = fmt.Errorf("kind %d", kind)
	}
	return msg, err
}

// Marshal encodes the peer beat.
func (p PeerBeat) Marshal() []byte {
	b := appendHeader(make([]byte, 0, 64+len(p.Agg)+len(p.Region)), kindPeerBeat)
	b = wire.AppendStr(b, p.Agg)
	b = wire.AppendStr(b, p.Region)
	b = wire.AppendU64(b, p.Inc)
	b = wire.AppendU64(b, p.Seq)
	b = wire.AppendU64(b, uint64(p.SentAt))
	b = wire.AppendU64(b, p.AssignVersion)
	b = append(b, flagIf(p.Leader, beatFlagLeader)|flagIf(p.Ready, beatFlagReady))
	b = wire.AppendU32(b, p.Leaves)
	b = wire.AppendU32(b, p.Cohorts)
	return wire.AppendU64(b, p.FleetStreams)
}

// flagIf returns bit when set, for assembling a flags byte.
func flagIf(set bool, bit uint8) uint8 {
	if set {
		return bit
	}
	return 0
}

func decodePeerBeat(r *wire.Reader) (*PeerBeat, error) {
	p := &PeerBeat{
		Agg: r.Str(), Region: r.Str(), Inc: r.U64(), Seq: r.U64(),
		SentAt: clock.Time(r.U64()), AssignVersion: r.U64(),
	}
	flags := r.U8()
	p.Leader, p.Ready = flags&beatFlagLeader != 0, flags&beatFlagReady != 0
	p.Leaves, p.Cohorts, p.FleetStreams = r.U32(), r.U32(), r.U64()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if p.Agg == "" {
		return nil, errors.New("empty aggregator id")
	}
	if flags&^(beatFlagLeader|beatFlagReady) != 0 {
		return nil, fmt.Errorf("peer beat flags %#x", flags)
	}
	return p, nil
}

// pack encodes m as one or more mirror chunks within the record-count
// caps and wire.MaxDatagram, each stamped with the next value of seq.
// Records fill chunks greedily in wire order (leaves, cohorts, history);
// merging is per-record and order-independent, so where a record lands
// does not matter. A history record wider than a datagram on its own (a
// dead leaf owned very many cohorts with long names) ships the head of
// its Moved list and counts the cut in MovedOmitted — the sender's own
// record and the cohort table stay whole.
func (m Mirror) pack(seq func() uint64) *wire.Chunker {
	c := wire.NewChunker(func(b []byte) []byte {
		b = wire.AppendStr(appendHeader(b, kindMirror), m.Agg)
		b = wire.AppendU64(b, m.Inc)
		b = wire.AppendU64(b, seq())
		b = wire.AppendU64(b, uint64(m.SentAt))
		return wire.AppendU64(b, m.AssignVersion)
	}, MaxMirrorLeaves, MaxMirrorCohorts, MaxMirrorHistory)
	for i := range m.Leaves {
		l := &m.Leaves[i]
		c.Add(0, func(b []byte) []byte {
			b = wire.AppendStr(b, l.ID)
			b = wire.AppendStr(b, l.Addr)
			b = wire.AppendStr(b, l.Region)
			b = wire.AppendF64(b, l.Weight)
			b = wire.AppendU64(b, l.Inc)
			b = wire.AppendU64(b, l.LastSeq)
			b = wire.AppendU64(b, uint64(l.LastAt))
			b = wire.AppendU64(b, l.EchoedAV)
			return append(b, l.Live)
		})
	}
	for i := range m.Cohorts {
		mc := &m.Cohorts[i]
		c.Add(1, func(b []byte) []byte {
			b = wire.AppendStr(b, mc.Filter)
			b = wire.AppendStr(b, mc.Owner)
			b = append(b, flagIf(mc.Orphaned, cohortFlagOrphaned))
			b = wire.AppendStr(b, mc.EpochLeaf)
			b = wire.AppendU64(b, mc.EpochInc)
			b = wire.AppendU64(b, mc.CarriedSuspects)
			b = wire.AppendU64(b, mc.CarriedTrusts)
			b = wire.AppendU64(b, mc.CarriedOfflines)
			b = wire.AppendU64(b, mc.CarriedEvictions)
			b = appendCounters(b, &mc.Last)
			b = wire.AppendU32(b, mc.Last.Omitted)
			return wire.AppendU64(b, uint64(mc.UpdatedAt))
		})
	}
	for i := range m.History {
		h := &m.History[i]
		c.Add(2, func(b []byte) []byte {
			start := len(b)
			b = wire.AppendU64(b, h.Version)
			b = wire.AppendU64(b, uint64(h.At))
			b = wire.AppendStr(b, h.Dead)
			// What the Moved entries may occupy, after the fixed fields
			// and movedCount(u16) movedOmitted(u32).
			room := c.Room() - (len(b) - start) - 6
			var moved []byte
			n := 0
			for ; n < len(h.Moved) && n < MaxAssignEntries; n++ {
				next := h.Moved[n].appendTo(moved)
				if len(next) > room {
					break
				}
				moved = next
			}
			b = wire.AppendU16(b, uint16(n))
			b = wire.AppendU32(b, h.MovedOmitted+uint32(len(h.Moved)-n))
			return append(b, moved...)
		})
	}
	return c
}

// Marshal encodes one mirror chunk. Panics on bound violations — the
// aggregator chunks with pack, same contract as Digest.Marshal.
func (m Mirror) Marshal() []byte {
	return m.pack(func() uint64 { return m.Seq }).One()
}

func decodeMirror(r *wire.Reader) (*Mirror, error) {
	m := &Mirror{
		Agg: r.Str(), Inc: r.U64(), Seq: r.U64(),
		SentAt: clock.Time(r.U64()), AssignVersion: r.U64(),
	}
	nLeaves, nCohorts, nHist := int(r.U16()), int(r.U16()), int(r.U16())
	if r.Err() == nil && m.Agg == "" {
		return nil, errors.New("empty aggregator id")
	}
	if nLeaves > MaxMirrorLeaves || nCohorts > MaxMirrorCohorts || nHist > MaxMirrorHistory {
		return nil, fmt.Errorf("mirror counts %d/%d/%d", nLeaves, nCohorts, nHist)
	}
	if nLeaves > 0 {
		m.Leaves = make([]MirrorLeaf, 0, nLeaves)
	}
	for i := 0; i < nLeaves && r.Err() == nil; i++ {
		l := MirrorLeaf{
			ID: r.Str(), Addr: r.Str(), Region: r.Str(), Weight: r.F64(),
			Inc: r.U64(), LastSeq: r.U64(), LastAt: clock.Time(r.U64()),
			EchoedAV: r.U64(), Live: r.U8(),
		}
		if r.Err() == nil && l.ID == "" {
			return nil, fmt.Errorf("mirror leaf %d: empty id", i)
		}
		if l.Live > uint8(leafDead) {
			return nil, fmt.Errorf("mirror leaf %d liveness %d", i, l.Live)
		}
		m.Leaves = append(m.Leaves, l)
	}
	if nCohorts > 0 {
		m.Cohorts = make([]MirrorCohort, 0, nCohorts)
	}
	for i := 0; i < nCohorts && r.Err() == nil; i++ {
		c := MirrorCohort{Filter: r.Str(), Owner: r.Str()}
		flags := r.U8()
		c.Orphaned = flags&cohortFlagOrphaned != 0
		c.EpochLeaf, c.EpochInc = r.Str(), r.U64()
		c.CarriedSuspects, c.CarriedTrusts = r.U64(), r.U64()
		c.CarriedOfflines, c.CarriedEvictions = r.U64(), r.U64()
		c.Last.Filter = c.Filter
		readCounters(r, &c.Last)
		c.Last.Omitted, c.UpdatedAt = r.U32(), clock.Time(r.U64())
		if r.Err() == nil && c.Filter == "" {
			return nil, fmt.Errorf("mirror cohort %d: empty filter", i)
		}
		if flags&^cohortFlagOrphaned != 0 {
			return nil, fmt.Errorf("mirror cohort %d flags %#x", i, flags)
		}
		m.Cohorts = append(m.Cohorts, c)
	}
	if nHist > 0 {
		m.History = make([]RedelegationRecord, 0, nHist)
	}
	for i := 0; i < nHist && r.Err() == nil; i++ {
		h := RedelegationRecord{Version: r.U64(), At: clock.Time(r.U64()), Dead: r.Str()}
		nMoved := int(r.U16())
		h.MovedOmitted = r.U32()
		if r.Err() == nil && h.Dead == "" {
			return nil, fmt.Errorf("mirror history %d: empty dead leaf", i)
		}
		if nMoved > MaxAssignEntries {
			return nil, fmt.Errorf("mirror history %d has %d entries", i, nMoved)
		}
		var err error
		if h.Moved, err = readAssignEntries(r, nMoved); err != nil {
			return nil, fmt.Errorf("mirror history %d: %v", i, err)
		}
		m.History = append(m.History, h)
	}
	return m, r.Done()
}

// Marshal encodes the digest receipt.
func (k Ack) Marshal() []byte {
	b := appendHeader(make([]byte, 0, 32+len(k.Agg)), kindAck)
	b = wire.AppendStr(b, k.Agg)
	b = append(b, flagIf(k.Leader, beatFlagLeader))
	b = wire.AppendU64(b, k.AssignVersion)
	b = wire.AppendU64(b, k.EchoSeq)
	return wire.AppendU64(b, uint64(k.SentAt))
}

func decodeAck(r *wire.Reader) (*Ack, error) {
	k := &Ack{Agg: r.Str()}
	flags := r.U8()
	k.Leader = flags&beatFlagLeader != 0
	k.AssignVersion, k.EchoSeq, k.SentAt = r.U64(), r.U64(), clock.Time(r.U64())
	if err := r.Done(); err != nil {
		return nil, err
	}
	if k.Agg == "" {
		return nil, errors.New("empty aggregator id")
	}
	if flags&^beatFlagLeader != 0 {
		return nil, fmt.Errorf("ack flags %#x", flags)
	}
	return k, nil
}
