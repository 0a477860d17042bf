package wire

import (
	"encoding/binary"
	"fmt"
)

// Chunker packs records into datagrams that each hold at most a fixed
// number of records per section and at most MaxDatagram bytes. Every
// datagram is laid out
//
//	header  count(u16) per section  section 0's records  section 1's ...
//
// The caller appends one record at a time; the record that crosses a
// count cap or the byte budget is rolled back, the chunk is sealed by
// patching its count fields, and the record opens the next chunk. Only
// the record encoders know how big a record is — nothing pre-computes
// sizes, so nothing can fall out of step with them.
type Chunker struct {
	header func([]byte) []byte
	caps   []int
	counts []int
	last   int    // section of the newest record in buf
	buf    []byte // chunk under construction, nil between chunks
	body   int    // offset of buf's first record
	out    [][]byte
}

// NewChunker returns a chunker whose every chunk opens with what header
// appends (called once per chunk, so it may stamp a fresh sequence
// number) followed by one count field per section; caps[i] bounds
// section i's records in one chunk.
func NewChunker(header func([]byte) []byte, caps ...int) *Chunker {
	return &Chunker{header: header, caps: caps, counts: make([]int, len(caps))}
}

func (c *Chunker) begin() {
	// One page up front: the common digest fits without regrowing, and
	// append's growth covers the ones that fill a datagram.
	c.buf = c.header(make([]byte, 0, 4096))
	c.buf = append(c.buf, make([]byte, 2*len(c.caps))...)
	c.body = len(c.buf)
	c.last = 0
	clear(c.counts)
}

func (c *Chunker) seal() {
	at := c.body - 2*len(c.counts)
	for i, n := range c.counts {
		binary.BigEndian.PutUint16(c.buf[at+2*i:], uint16(n))
	}
	c.out = append(c.out, c.buf[:len(c.buf):len(c.buf)])
	c.buf = nil
}

// Room returns the bytes one record may occupy: a datagram less the
// header and count fields. An encoder of records with an unbounded tail
// truncates against it; every other record fits by construction (names
// are bounded by AppendStr, nested lists by their caps).
func (c *Chunker) Room() int {
	if c.buf == nil {
		c.begin()
	}
	return MaxDatagram - c.body
}

// Add appends one record of the given section, written by record, to the
// chunk under construction, starting a new chunk first when this one has
// no room for it. Sections must be added in ascending order, the order
// they occupy on the wire. It panics on a record wider than Room or a
// section out of order — encoder bugs, not inputs.
func (c *Chunker) Add(section int, record func([]byte) []byte) {
	if c.buf == nil {
		c.begin()
	}
	if section < c.last {
		panic(fmt.Sprintf("wire: section %d record after section %d", section, c.last))
	}
	mark := len(c.buf)
	c.buf = record(c.buf)
	if c.counts[section] >= c.caps[section] || len(c.buf) > MaxDatagram {
		rec := c.buf[mark:]
		if len(rec) > c.Room() {
			panic(fmt.Sprintf("wire: %d-byte section %d record does not fit an empty chunk", len(rec), section))
		}
		c.buf = c.buf[:mark]
		c.seal()
		c.begin()
		c.buf = append(c.buf, rec...)
	}
	c.counts[section]++
	c.last = section
}

// Sealed returns how many chunks are complete: it turns positive when a
// record opened a second chunk, which a producer that may send only one
// datagram takes as its signal to stop.
func (c *Chunker) Sealed() int { return len(c.out) }

// Chunks seals the chunk under construction and returns every datagram
// built — always at least one: with no records, a header with zero
// counts (the senders' heartbeat-only message).
func (c *Chunker) Chunks() [][]byte {
	if c.buf == nil && len(c.out) == 0 {
		c.begin()
	}
	if c.buf != nil {
		c.seal()
	}
	return c.out
}

// One returns the single datagram the records fit in, and panics when
// they needed more: the assertion behind a Marshal of one message, whose
// producer chunks before encoding.
func (c *Chunker) One() []byte {
	chunks := c.Chunks()
	if len(chunks) != 1 {
		panic(fmt.Sprintf("wire: message exceeds one datagram's bounds (%d chunks)", len(chunks)))
	}
	return chunks[0]
}
