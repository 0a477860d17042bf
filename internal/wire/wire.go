// Package wire is the one binary toolkit under the gossip, federation
// and persistence codecs: a bounds-checked big-endian read cursor, the
// matching append helpers, the bound on every length-prefixed name, and
// the chunker that packs records into datagrams of bounded size. The
// formats themselves stay with their packages; what lives here is every
// limit that used to be enforced once per codec.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	// MaxNameLen bounds every length-prefixed string — monitor, leaf and
	// aggregator ids, stream names, cohort filters. AppendStr asserts it,
	// Reader.Str rejects above it, and the registry refuses longer stream
	// names at registration, so no encoder meets one.
	MaxNameLen = 512
	// MaxDatagram bounds one encoded datagram: safely under UDP's
	// 65 507-byte payload ceiling and the transport's 64 KiB receive
	// buffer. Record-count caps do not bound an encoding on their own
	// (names run up to MaxNameLen), so the Chunker packs against this too.
	MaxDatagram = 60000
)

// AppendU16 appends v big-endian.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// AppendU32 appends v big-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends v big-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendF64 appends v's IEEE-754 bit pattern.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendStr appends s behind a u16 length. It panics when s exceeds
// MaxNameLen — a programming error: names are bounded where they enter
// the program (registration, option validation, Reader.Str).
func AppendStr(b []byte, s string) []byte {
	if len(s) > MaxNameLen {
		panic(fmt.Sprintf("wire: %d-byte name exceeds %d", len(s), MaxNameLen))
	}
	return append(AppendU16(b, uint16(len(s))), s...)
}

// Reader is a bounds-checked big-endian cursor over untrusted bytes.
// After the first short read (or over-long name) it latches an error and
// every later read returns zero, so a decoder reads every field and
// checks Err or Done once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Err returns the latched error, nil while every read has succeeded.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or an error when unread bytes remain:
// a decoder's final check.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Take returns the next n bytes (aliasing the input), or nil after
// latching an error when fewer remain.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.err = fmt.Errorf("truncated: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// F64 reads an IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a u16-length-prefixed string of at most MaxNameLen bytes.
func (r *Reader) Str() string {
	n := int(r.U16())
	if n > MaxNameLen && r.err == nil {
		r.err = fmt.Errorf("%d-byte name at offset %d exceeds %d", n, r.off, MaxNameLen)
	}
	return string(r.Take(n))
}
