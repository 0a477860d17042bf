// Package federate is the hierarchical federation tier above the flat
// monitor consortium: leaf monitors own stream *cohorts* (topic-filter
// subtrees such as "eu/cluster-3/#") and periodically roll each cohort
// up into a compact digest — stream counts by state, transition
// counters, a QoS summary — sent to a regional aggregator. The
// aggregator merges digests from many leaves into a fleet-wide view,
// monitors each leaf's digest stream with the same SFD detector
// machinery the leaves use on their streams (eating our own dogfood),
// and, when a leaf is declared offline, re-delegates its cohorts to
// surviving leaves through a deterministic assignment table.
//
// The design follows Dobre et al.'s multi-layer detection architecture
// ("Robust Failure Detection Architecture for Large Scale Distributed
// Systems"): per-node detection stays at the leaves, inter-node traffic
// carries aggregates, and the tier above reasons about cohorts. Roll-up
// bandwidth is O(cohorts), never O(streams): a digest row summarizes a
// subtree, and per-stream detail is available on demand from the leaf's
// /watch endpoint (or its bus, in-process).
package federate

import (
	"errors"
	"fmt"

	"repro/internal/clock"
	"repro/internal/wire"
)

// Wire format. Federation messages share the heartbeat/gossip socket
// and are discriminated by magic bytes ('F','D'), exactly as gossip
// digests ('S','G') ride beside heartbeats ('H','B'):
//
//	magic 'F','D'  version(1)  kind(1)  body...
//
// kindDigest (leaf → aggregator) body:
//
//	leafLen(u16) leaf  regionLen(u16) region  inc(u64) seq(u64)
//	sentAt(u64) weight(f64) assignVersion(u64) cohortCount(u16)
//	then per cohort:
//	  filterLen(u16) filter
//	  streams(u32) trusted(u32) suspected(u32) offline(u32)
//	  suspects(u64) trusts(u64) offlines(u64) evictions(u64)
//	  tdSum(f64) mrSum(f64) qapMin(f64) tuned(u32)
//	  notableCount(u16) omitted(u32)
//	  then per notable: peerLen(u16) peer type(u8) at(u64) inc(u64)
//
// kindAssign (aggregator → leaf) body:
//
//	aggLen(u16) agg  version(u64)  entryCount(u16)
//	then per entry: cohortLen(u16) cohort ownerLen(u16) owner
//
// kindUrgent (leaf → aggregator) body: byte for byte the kindDigest
// body. The leaf sends one at the end of a registry wheel tick that
// published transitions for its cohorts, with a row per changed cohort:
// its cumulative transition counters, the notables queued since the
// last digest and Omitted (its state counts and QoS are not read). seq is
// a per-incarnation urgent counter, separate from the digest seq.
// Aggregators merge the rows only: an urgent digest is not a liveness
// heartbeat and is not acked (see Aggregator.ingestUrgent).
//
// The aggregator-HA records (kindPeerBeat, kindMirror, kindAck) are
// documented in wire_ha.go; kindUrgent is 6, after them.
//
// All integers big-endian; floats are IEEE-754 bit patterns. Bounded:
// names ≤ wire.MaxNameLen bytes, a datagram ≤ wire.MaxDatagram bytes,
// cohorts ≤ MaxDigestCohorts per datagram (larger cohort sets are
// chunked by the leaf), notables ≤ MaxNotablePerCohort per cohort,
// assignment entries ≤ MaxAssignEntries.
// Transition counters are CUMULATIVE per (leaf incarnation, cohort
// ownership epoch), not deltas: a lost or reordered datagram can delay
// the fleet view but can never lose a transition.
const (
	wireVersion = 1

	kindDigest uint8 = 1
	kindAssign uint8 = 2
	kindUrgent uint8 = 6

	// MaxDigestCohorts bounds one datagram's cohort rows; a leaf owning
	// more chunks its roll-up across several digests (same seq semantics
	// as gossip chunking).
	MaxDigestCohorts = 256
	// MaxNotablePerCohort bounds the per-cohort notable-transition list;
	// overflow is counted in Omitted, and consumers that need every
	// transition tap the leaf's /watch stream instead.
	MaxNotablePerCohort = 32
	// MaxAssignEntries bounds one assignment datagram's table size.
	MaxAssignEntries = 1024
)

var wireMagic = [2]byte{'F', 'D'}

// ErrBadMessage reports an undecodable federation datagram.
var ErrBadMessage = errors.New("federate: bad message")

// IsFederation reports whether a payload carries the federation magic —
// the shared-socket dispatch test (cheap, no full decode).
func IsFederation(payload []byte) bool {
	return len(payload) >= 2 && payload[0] == wireMagic[0] && payload[1] == wireMagic[1]
}

// Notable is one noteworthy transition carried in a digest for
// fleet-level visibility: suspect/offline/trust events with the stream
// name, bounded per cohort (see MaxNotablePerCohort).
type Notable struct {
	Peer string
	Type uint8 // registry.EventType value
	At   clock.Time
	Inc  uint64
}

// CohortDigest is one cohort's roll-up row: O(1) bytes per cohort
// regardless of how many streams the cohort holds.
type CohortDigest struct {
	// Filter is the cohort's topic filter (e.g. "eu/cluster-3/#").
	Filter string
	// Stream counts by state at roll-up time.
	Streams   uint32
	Trusted   uint32
	Suspected uint32
	Offline   uint32
	// Cumulative transition counters for this (incarnation, ownership
	// epoch): monotone, so the aggregator merges by keeping the maximum
	// and no datagram loss can lose a transition.
	Suspects  uint64
	Trusts    uint64
	Offlines  uint64
	Evictions uint64
	// QoS aggregates over the cohort's self-tuning detectors: sums of
	// the last slot's measured TD (seconds) and MR across the Tuned
	// streams that had a sample, and the minimum QAP among them (1.0
	// when none). Sums, not means, so the aggregator can merge cohorts.
	TDSum  float64
	MRSum  float64
	QAPMin float64
	Tuned  uint32
	// Notable transitions since the previous digest (bounded; overflow
	// counted in Omitted).
	Notable []Notable
	Omitted uint32
}

// Digest is one leaf → aggregator roll-up message. Its (Inc, Seq) pair
// doubles as the leaf's liveness heartbeat: the aggregator feeds it to a
// registry.Registry, so leaf failure detection uses the exact SFD
// machinery the leaves apply to their own streams.
type Digest struct {
	// Leaf is the sending leaf's identity — a valid hierarchical stream
	// name (it becomes a monitored stream on the aggregator).
	Leaf string
	// Region groups leaves for re-delegation locality.
	Region string
	// Inc is the leaf's incarnation (bumped on restart, SWIM-style).
	Inc uint64
	// Seq increases with every digest within one incarnation.
	Seq uint64
	// SentAt is the leaf's clock at send (the heartbeat timestamp).
	SentAt clock.Time
	// Weight is the leaf's self-assessed accuracy in [0,1], fed from its
	// gossip mistake-rate EWMA when gossip runs (1 otherwise). The
	// aggregator prefers heavier leaves when re-delegating cohorts.
	Weight float64
	// AssignVersion is the newest assignment-table version this leaf has
	// applied — the aggregator re-pushes the table until digests echo
	// the current version (anti-entropy, loss-tolerant).
	AssignVersion uint64
	// Cohorts are the roll-up rows for every cohort this leaf owns.
	Cohorts []CohortDigest
}

// AssignEntry is one row of the assignment table: the cohort and the
// leaf that owns (monitors and rolls up) it.
type AssignEntry struct {
	Cohort string
	Owner  string
}

// Assignment is one aggregator → leaf table push. Leaves adopt the
// cohorts assigned to them and drop the rest; Version ratchets so a
// reordered datagram cannot roll a leaf back to a stale table.
type Assignment struct {
	Agg     string
	Version uint64
	Entries []AssignEntry
}

// appendHeader appends the four framing bytes every federation datagram
// opens with.
func appendHeader(b []byte, kind uint8) []byte {
	return append(b, wireMagic[0], wireMagic[1], wireVersion, kind)
}

// pack encodes d as one or more datagrams of the given kind (kindDigest
// or kindUrgent) of at most MaxDigestCohorts rows and wire.MaxDatagram
// bytes, each stamped with the next value of seq.
func (d Digest) pack(kind uint8, seq func() uint64) *wire.Chunker {
	c := wire.NewChunker(func(b []byte) []byte {
		b = appendHeader(b, kind)
		b = wire.AppendStr(b, d.Leaf)
		b = wire.AppendStr(b, d.Region)
		b = wire.AppendU64(b, d.Inc)
		b = wire.AppendU64(b, seq())
		b = wire.AppendU64(b, uint64(d.SentAt))
		b = wire.AppendF64(b, d.Weight)
		return wire.AppendU64(b, d.AssignVersion)
	}, MaxDigestCohorts)
	for i := range d.Cohorts {
		row := &d.Cohorts[i]
		if len(row.Notable) > MaxNotablePerCohort {
			panic(fmt.Sprintf("federate: %d notables exceeds %d", len(row.Notable), MaxNotablePerCohort))
		}
		c.Add(0, func(b []byte) []byte {
			b = wire.AppendStr(b, row.Filter)
			b = appendCounters(b, row)
			b = wire.AppendU16(b, uint16(len(row.Notable)))
			b = wire.AppendU32(b, row.Omitted)
			for _, n := range row.Notable {
				b = append(wire.AppendStr(b, n.Peer), n.Type)
				b = wire.AppendU64(wire.AppendU64(b, uint64(n.At)), n.Inc)
			}
			return b
		})
	}
	return c
}

// Marshal encodes the digest as one datagram. It panics when a name, a
// count or the encoded size exceeds the wire bounds — a programming
// error, since the leaf chunks with pack (same contract as the gossip
// codec).
func (d Digest) Marshal() []byte {
	return d.pack(kindDigest, func() uint64 { return d.Seq }).One()
}

// appendCounters appends the state-count, transition-counter and QoS
// block a cohort row carries in digests and mirrors alike.
func appendCounters(b []byte, c *CohortDigest) []byte {
	for _, v := range [...]uint32{c.Streams, c.Trusted, c.Suspected, c.Offline} {
		b = wire.AppendU32(b, v)
	}
	for _, v := range [...]uint64{c.Suspects, c.Trusts, c.Offlines, c.Evictions} {
		b = wire.AppendU64(b, v)
	}
	for _, v := range [...]float64{c.TDSum, c.MRSum, c.QAPMin} {
		b = wire.AppendF64(b, v)
	}
	return wire.AppendU32(b, c.Tuned)
}

func readCounters(r *wire.Reader, c *CohortDigest) {
	c.Streams, c.Trusted, c.Suspected, c.Offline = r.U32(), r.U32(), r.U32(), r.U32()
	c.Suspects, c.Trusts, c.Offlines, c.Evictions = r.U64(), r.U64(), r.U64(), r.U64()
	c.TDSum, c.MRSum, c.QAPMin, c.Tuned = r.F64(), r.F64(), r.F64(), r.U32()
}

// pack encodes the table push. A leaf replaces its whole table with each
// push, so only one datagram can go out: pack stops at the first entry
// that does not fit (past MaxAssignEntries or the datagram budget) and
// reports how many entries it left out.
func (a Assignment) pack() (c *wire.Chunker, spilled int) {
	c = wire.NewChunker(func(b []byte) []byte {
		b = wire.AppendStr(appendHeader(b, kindAssign), a.Agg)
		return wire.AppendU64(b, a.Version)
	}, MaxAssignEntries)
	for i, e := range a.Entries {
		if c.Add(0, e.appendTo); c.Sealed() > 0 {
			return c, len(a.Entries) - i
		}
	}
	return c, 0
}

func (e AssignEntry) appendTo(b []byte) []byte {
	return wire.AppendStr(wire.AppendStr(b, e.Cohort), e.Owner)
}

// Marshal encodes the assignment table push as one datagram, panicking
// on over-bound values like Digest.Marshal.
func (a Assignment) Marshal() []byte {
	c, _ := a.pack()
	return c.One()
}

func decodeDigest(r *wire.Reader) (*Digest, error) {
	d := &Digest{
		Leaf: r.Str(), Region: r.Str(), Inc: r.U64(), Seq: r.U64(),
		SentAt: clock.Time(r.U64()), Weight: r.F64(), AssignVersion: r.U64(),
	}
	count := int(r.U16())
	if r.Err() == nil && d.Leaf == "" {
		return nil, errors.New("empty leaf id")
	}
	if count > MaxDigestCohorts {
		return nil, fmt.Errorf("%d cohorts", count)
	}
	if count > 0 {
		d.Cohorts = make([]CohortDigest, 0, count)
	}
	for i := 0; i < count && r.Err() == nil; i++ {
		c := CohortDigest{Filter: r.Str()}
		readCounters(r, &c)
		nNotable := int(r.U16())
		c.Omitted = r.U32()
		if r.Err() == nil && c.Filter == "" {
			return nil, fmt.Errorf("cohort %d: empty filter", i)
		}
		if nNotable > MaxNotablePerCohort {
			return nil, fmt.Errorf("cohort %d has %d notables", i, nNotable)
		}
		for j := 0; j < nNotable; j++ {
			c.Notable = append(c.Notable, Notable{
				Peer: r.Str(), Type: r.U8(), At: clock.Time(r.U64()), Inc: r.U64(),
			})
		}
		d.Cohorts = append(d.Cohorts, c)
	}
	return d, r.Done()
}

func decodeAssign(r *wire.Reader) (*Assignment, error) {
	a := &Assignment{Agg: r.Str(), Version: r.U64()}
	count := int(r.U16())
	if count > MaxAssignEntries {
		return nil, fmt.Errorf("%d assignment entries", count)
	}
	var err error
	if a.Entries, err = readAssignEntries(r, count); err != nil {
		return nil, err
	}
	return a, r.Done()
}

// readAssignEntries reads n (cohort, owner) pairs, rejecting an empty
// name; nil when n is 0.
func readAssignEntries(r *wire.Reader, n int) (dst []AssignEntry, err error) {
	if n > 0 {
		dst = make([]AssignEntry, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		e := AssignEntry{Cohort: r.Str(), Owner: r.Str()}
		if r.Err() == nil && (e.Cohort == "" || e.Owner == "") {
			return nil, fmt.Errorf("assignment entry %d: empty name", i)
		}
		dst = append(dst, e)
	}
	return dst, nil
}
