// Package gossip is the dissemination layer between monitors: the
// paper's Fig. 1 deployment is "multiple monitor multiple" — several
// monitors across clouds watch overlapping server sets — and this
// package turns each monitor's local suspicions into fleet-wide
// verdicts. Monitors periodically exchange compact, versioned suspicion
// digests (anti-entropy over the same unreliable datagram substrate the
// heartbeats use), and a stream is only *globally* declared offline when
// enough monitors concur, each weighted by its recent accuracy — the
// quorum-corroboration idea of Dobre et al.'s robust FD architecture
// combined with the Impact FD's weighted group-level trust. Incarnation
// numbers (SWIM-style) let a recovered process refute stale suspicion of
// its previous life.
package gossip

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/wire"
)

// State is a monitor's opinion about one subject stream, ordered by
// severity so precedence comparisons are numeric.
type State uint8

const (
	// StateTrusted: the monitor currently trusts the subject (also used
	// to refute another monitor's suspicion at the same incarnation).
	StateTrusted State = iota
	// StateSuspect: the subject's freshness point expired locally.
	StateSuspect
	// StateOffline: the subject stayed suspected past the local offline
	// grace period.
	StateOffline
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateTrusted:
		return "trusted"
	case StateSuspect:
		return "suspect"
	case StateOffline:
		return "offline"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Opinion is one monitor's view of one subject at one incarnation.
type Opinion struct {
	Subject string
	State   State
	// Inc is the subject incarnation this opinion refers to. An opinion
	// about incarnation i says nothing about incarnation i+1: a
	// restarted process refutes old suspicion simply by existing.
	Inc uint64
	// Level is the local accrual suspicion evidence behind the opinion
	// (the TD/φ output at transition time; 0 for trusted).
	Level float64
}

// Digest is one anti-entropy exchange unit: the sending monitor's
// identity, its self-assessed accuracy weight, a per-monitor sequence
// number that versions its opinions, and the opinions themselves.
type Digest struct {
	Monitor string
	// Weight is the sender's self-reported accuracy in [0,1], derived
	// from its recent mistake rate (1 = no recent wrong suspicions).
	// Receivers clamp it into [WeightFloor, 1] before use.
	Weight float64
	// Seq increases with every digest a monitor sends; receivers keep
	// only the newest opinion per (subject, monitor), so reordered UDP
	// deliveries cannot resurrect a retracted suspicion.
	Seq     uint64
	Entries []Opinion
}

// Wire format v1:
//
//	magic 'S','G'  version(1)  idLen(u16) id  weight(f64) seq(u64)
//	count(u16) then per entry: subjLen(u16) subject state(u8) inc(u64)
//	level(f64)
//
// All integers big-endian. Bounded: id and subjects ≤ wire.MaxNameLen
// bytes, count ≤ MaxDigestEntries, the datagram ≤ wire.MaxDatagram.
const (
	digestVersion = 1
	// MaxDigestEntries bounds one datagram's entry count; larger opinion
	// sets are chunked across digests by the sender.
	MaxDigestEntries = 1024
)

var digestMagic = [2]byte{'S', 'G'}

// ErrBadDigest reports an undecodable gossip datagram.
var ErrBadDigest = errors.New("gossip: bad digest")

// pack encodes d as one or more datagrams of at most MaxDigestEntries
// entries and wire.MaxDatagram bytes, each stamped with the next value
// of seq.
func (d Digest) pack(seq func() uint64) *wire.Chunker {
	c := wire.NewChunker(func(b []byte) []byte {
		b = append(b, digestMagic[0], digestMagic[1], digestVersion)
		b = wire.AppendStr(b, d.Monitor)
		b = wire.AppendF64(b, d.Weight)
		return wire.AppendU64(b, seq())
	}, MaxDigestEntries)
	for i := range d.Entries {
		e := &d.Entries[i]
		c.Add(0, func(b []byte) []byte {
			b = append(wire.AppendStr(b, e.Subject), byte(e.State))
			return wire.AppendF64(wire.AppendU64(b, e.Inc), e.Level)
		})
	}
	return c
}

// Marshal encodes the digest as one datagram. It panics if the monitor
// id, a subject, the entry count or the encoded size exceeds the wire
// bounds — a programming error, since the gossiper chunks with pack.
func (d Digest) Marshal() []byte {
	return d.pack(func() uint64 { return d.Seq }).One()
}

// UnmarshalDigest decodes a gossip datagram. Any malformed input returns
// ErrBadDigest; no input may panic (the port is open to the world, same
// contract as the heartbeat codec).
func UnmarshalDigest(b []byte) (Digest, error) {
	d, err := decodeDigest(b)
	if err != nil {
		return Digest{}, fmt.Errorf("%w: %v", ErrBadDigest, err)
	}
	return d, nil
}

func decodeDigest(b []byte) (Digest, error) {
	if len(b) > wire.MaxDatagram {
		return Digest{}, fmt.Errorf("%d bytes exceeds a datagram", len(b))
	}
	r := wire.NewReader(b)
	if m0, m1 := r.U8(), r.U8(); m0 != digestMagic[0] || m1 != digestMagic[1] {
		return Digest{}, errors.New("bad magic")
	}
	if ver := r.U8(); r.Err() == nil && ver != digestVersion {
		return Digest{}, fmt.Errorf("version %d", ver)
	}
	d := Digest{Monitor: r.Str(), Weight: r.F64(), Seq: r.U64()}
	count := int(r.U16())
	if count > MaxDigestEntries {
		return Digest{}, fmt.Errorf("%d entries", count)
	}
	if count > 0 {
		d.Entries = make([]Opinion, 0, count)
	}
	for i := 0; i < count && r.Err() == nil; i++ {
		e := Opinion{Subject: r.Str(), State: State(r.U8()), Inc: r.U64(), Level: r.F64()}
		if e.State > StateOffline {
			return Digest{}, fmt.Errorf("entry %d: state %d", i, e.State)
		}
		d.Entries = append(d.Entries, e)
	}
	return d, r.Done()
}

// clampWeight forces a received (or computed) weight into [floor, 1],
// treating NaN and ±Inf as the floor — a hostile digest cannot poison
// the quorum arithmetic.
func clampWeight(w, floor float64) float64 {
	if math.IsNaN(w) || math.IsInf(w, 0) || w < floor {
		return floor
	}
	if w > 1 {
		return 1
	}
	return w
}

// remoteOpinion is a received opinion plus the bookkeeping the receiver
// needs: the digest sequence that carried it (versioning) and the
// receive instant (TTL expiry when the reporting monitor goes quiet).
type remoteOpinion struct {
	Opinion
	seq uint64     // digest sequence that carried it
	at  clock.Time // receive instant (for TTL expiry)
}
