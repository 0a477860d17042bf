// Package heartbeat implements the paper's monitoring protocol (Fig. 2):
// a Sender emits numbered, timestamped heartbeats every Δt over an
// unreliable datagram endpoint; a Receiver decodes them and feeds every
// one to a handler, normally registry.Registry.Observe, which drops stale
// deliveries before any failure detector sees them. A Ping probe runs
// alongside to estimate the round-trip time, mirroring the paper's
// "low-frequency ping process ... a means to obtain a rough estimation
// of the round-trip time, and also to make sure the network is
// connected" (§V).
package heartbeat

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/clock"
)

// Kind discriminates wire messages.
type Kind uint8

const (
	// KindHeartbeat is a periodic liveness message.
	KindHeartbeat Kind = 1
	// KindPing requests an echo (RTT probe).
	KindPing Kind = 2
	// KindPong answers a ping, echoing its timestamp.
	KindPong Kind = 3
)

// wire format v2: magic(2) version(1) kind(1) seq(8) time(8) inc(8) = 28
// bytes. v1 (20 bytes, no incarnation) is still accepted on receive so a
// mixed-version fleet keeps working; v1 senders report incarnation 0.
//
// wire format v3 appends a logical stream name: the v2 layout followed by
// nameLen(1) name(1..255) = 29+len bytes. A named heartbeat identifies its
// stream by the carried name instead of the datagram's source address, so
// one socket can multiplex many logical senders (a fleet simulator
// pooling sockets under the file-descriptor limit) and a sender
// surviving a NAT rebind keeps its identity across the source-port
// change. Nameless
// messages marshal as v2, so v3 is invisible until someone uses it.
const (
	msgSizeV1   = 20
	msgSize     = 28
	msgVersion  = 2
	msgSizeV3   = 29 // fixed prefix; the name follows
	msgVersion3 = 3
	// MaxNameLen is the longest stream name a v3 heartbeat can carry
	// (single length byte on the wire).
	MaxNameLen = 255
)

var msgMagic = [2]byte{'H', 'B'}

// ErrBadMessage reports an undecodable datagram.
var ErrBadMessage = errors.New("heartbeat: bad message")

// Message is a decoded wire message.
type Message struct {
	Kind Kind
	Seq  uint64
	// Time is the sender's clock at send for heartbeats and pings; pongs
	// echo the ping's timestamp so the prober can compute RTT from its
	// own clock alone.
	Time clock.Time
	// Inc is the sender's incarnation number (SWIM-style): a process that
	// restarts after a crash bumps it, which both resets the monitor's
	// per-incarnation sequence filter and lets the gossip layer refute
	// stale suspicion of the previous incarnation.
	Inc uint64
	// Name is the logical stream name (wire v3). Empty marshals as v2 and
	// the stream is identified by its source address, the pre-v3
	// behavior. Must be at most MaxNameLen bytes.
	Name string
}

// Marshal encodes the message into a fresh buffer: v2 (28 bytes) when
// Name is empty, v3 (29+len(Name)) otherwise. It panics if Name exceeds
// MaxNameLen — a programmer error callers validate at configuration time.
func (m Message) Marshal() []byte {
	size := msgSize
	if m.Name != "" {
		size = msgSizeV3 + len(m.Name)
	}
	return m.AppendTo(make([]byte, 0, size))
}

// AppendTo appends the wire encoding to buf and returns the extended
// slice — the allocation-free path for a fleet sender reusing one
// marshal buffer per worker. Same version selection and Name-length
// panic as Marshal.
func (m Message) AppendTo(buf []byte) []byte {
	if len(m.Name) > MaxNameLen {
		panic("heartbeat: stream name exceeds 255 bytes")
	}
	ver := byte(msgVersion)
	if m.Name != "" {
		ver = msgVersion3
	}
	buf = append(buf, msgMagic[0], msgMagic[1], ver, byte(m.Kind))
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.Time))
	buf = binary.BigEndian.AppendUint64(buf, m.Inc)
	if m.Name != "" {
		buf = append(buf, byte(len(m.Name)))
		buf = append(buf, m.Name...)
	}
	return buf
}

// Unmarshal decodes a datagram (v1, v2, or v3). For v3 the Name field is
// a fresh string; use Decode on hot paths that want to intern it.
func Unmarshal(b []byte) (Message, error) {
	m, name, err := Decode(b)
	if err != nil {
		return Message{}, err
	}
	if len(name) > 0 {
		m.Name = string(name)
	}
	return m, nil
}

// Decode is Unmarshal without the name allocation: the v3 stream name is
// returned as a sub-slice of b (nil for v1/v2) and m.Name is left empty.
// Callers must not retain the name slice past the datagram buffer's
// lifetime — the receiver passes it on as a call-scoped Arrival.Name,
// and the registry copies it once, when the name's stream is created.
func Decode(b []byte) (m Message, name []byte, err error) {
	if len(b) < msgSizeV1 {
		return Message{}, nil, fmt.Errorf("%w: length %d", ErrBadMessage, len(b))
	}
	if b[0] != msgMagic[0] || b[1] != msgMagic[1] {
		return Message{}, nil, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	switch {
	case b[2] == 1 && len(b) == msgSizeV1:
	case b[2] == msgVersion && len(b) == msgSize:
	case b[2] == msgVersion3 && len(b) >= msgSizeV3:
		n := int(b[msgSizeV3-1])
		if n == 0 || len(b) != msgSizeV3+n {
			return Message{}, nil, fmt.Errorf("%w: v3 name length %d with length %d", ErrBadMessage, n, len(b))
		}
		name = b[msgSizeV3:]
	default:
		return Message{}, nil, fmt.Errorf("%w: version %d with length %d", ErrBadMessage, b[2], len(b))
	}
	k := Kind(b[3])
	if k != KindHeartbeat && k != KindPing && k != KindPong {
		return Message{}, nil, fmt.Errorf("%w: kind %d", ErrBadMessage, b[3])
	}
	m = Message{
		Kind: k,
		Seq:  binary.BigEndian.Uint64(b[4:]),
		Time: clock.Time(binary.BigEndian.Uint64(b[12:])),
	}
	if len(b) >= msgSize {
		m.Inc = binary.BigEndian.Uint64(b[20:])
	}
	return m, name, nil
}
