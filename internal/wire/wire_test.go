package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestAppendReadRoundTrip(t *testing.T) {
	name := strings.Repeat("n", MaxNameLen)
	b := append([]byte(nil), 0xAB)
	b = AppendU16(b, 0xBEEF)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 1<<63+7)
	b = AppendF64(b, math.Pi)
	b = AppendStr(b, "")
	b = AppendStr(b, name)

	r := NewReader(b)
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63+7 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if v := r.Str(); v != "" {
		t.Errorf("empty Str = %q", v)
	}
	if v := r.Str(); v != name {
		t.Errorf("Str lost a %d-byte name", len(name))
	}
	if r.Remaining() != 0 || r.Done() != nil {
		t.Fatalf("remaining %d, done %v", r.Remaining(), r.Done())
	}
}

func TestReaderLatchesFirstError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.U16() != 0x0102 || r.Err() != nil {
		t.Fatal("in-bounds read failed")
	}
	if v := r.U32(); v != 0 || r.Err() == nil {
		t.Fatalf("short read returned %#x, err %v", v, r.Err())
	}
	first := r.Err()
	// The byte that is still there is no longer readable: one check at
	// the end of a decoder must see the first failure.
	if v := r.U8(); v != 0 || r.Err() != first || r.Done() != first {
		t.Fatalf("error did not latch: U8 = %d, err %v, done %v", v, r.Err(), r.Done())
	}
}

func TestReaderRejects(t *testing.T) {
	if r := NewReader([]byte{7, 7}); r.U8() != 7 || r.Done() == nil {
		t.Error("Done accepted a trailing byte")
	}
	long := AppendU16(nil, MaxNameLen+1)
	long = append(long, make([]byte, MaxNameLen+1)...)
	if r := NewReader(long); r.Str() != "" || r.Err() == nil {
		t.Error("Str accepted a name over MaxNameLen")
	}
	if r := NewReader([]byte{0, 5, 'a', 'b'}); r.Str() != "" || r.Err() == nil {
		t.Error("Str accepted a name longer than the buffer")
	}
	if r := NewReader([]byte{1}); r.Take(-1) != nil || r.Err() == nil {
		t.Error("Take accepted a negative length")
	}
}

func TestAppendStrPanicsOverMaxNameLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	AppendStr(nil, strings.Repeat("x", MaxNameLen+1))
}

// testChunker builds two-section chunks: header "H" seq(u8), then
// counts, then records that are their own bytes.
func testChunker(capA, capB int) *Chunker {
	seq := byte(0)
	return NewChunker(func(b []byte) []byte { seq++; return append(b, 'H', seq) }, capA, capB)
}

func raw(rec []byte) func([]byte) []byte {
	return func(b []byte) []byte { return append(b, rec...) }
}

// parseChunk splits a testChunker datagram whose records are all n bytes.
func parseChunk(t *testing.T, c []byte, n int) (seq byte, a, b [][]byte) {
	t.Helper()
	if len(c) < 6 || c[0] != 'H' {
		t.Fatalf("bad chunk header % x", c)
	}
	na, nb := int(binary.BigEndian.Uint16(c[2:])), int(binary.BigEndian.Uint16(c[4:]))
	if len(c) != 6+(na+nb)*n {
		t.Fatalf("chunk is %d bytes, counts %d+%d of %d-byte records", len(c), na, nb, n)
	}
	body := c[6:]
	for i := 0; i < na+nb; i++ {
		rec := body[i*n : (i+1)*n]
		if i < na {
			a = append(a, rec)
		} else {
			b = append(b, rec)
		}
	}
	return c[1], a, b
}

func TestChunkerSplitsOnCountCap(t *testing.T) {
	c := testChunker(2, 3)
	for i := byte(0); i < 5; i++ {
		c.Add(0, raw([]byte{'a', i}))
	}
	for i := byte(0); i < 4; i++ {
		c.Add(1, raw([]byte{'b', i}))
	}
	chunks := c.Chunks()
	// a0 a1 | a2 a3 | a4 b0 b1 b2 | b3
	wantA, wantB := []int{2, 2, 1, 0}, []int{0, 0, 3, 1}
	if len(chunks) != len(wantA) {
		t.Fatalf("%d chunks, want %d", len(chunks), len(wantA))
	}
	var seenA, seenB byte
	for i, ch := range chunks {
		seq, a, b := parseChunk(t, ch, 2)
		if int(seq) != i+1 {
			t.Errorf("chunk %d stamped seq %d: header must run once per chunk", i, seq)
		}
		if len(a) != wantA[i] || len(b) != wantB[i] {
			t.Errorf("chunk %d holds %d+%d records, want %d+%d", i, len(a), len(b), wantA[i], wantB[i])
		}
		for _, rec := range a {
			if rec[0] != 'a' || rec[1] != seenA {
				t.Fatalf("chunk %d: section 0 record % x out of order", i, rec)
			}
			seenA++
		}
		for _, rec := range b {
			if rec[0] != 'b' || rec[1] != seenB {
				t.Fatalf("chunk %d: section 1 record % x out of order", i, rec)
			}
			seenB++
		}
	}
	if seenA != 5 || seenB != 4 {
		t.Fatalf("saw %d+%d records, want 5+4", seenA, seenB)
	}
}

func TestChunkerSplitsOnByteBudget(t *testing.T) {
	const recLen = 1000
	c := testChunker(1<<15, 1)
	n := 2*MaxDatagram/recLen + 1
	for i := 0; i < n; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, recLen)
		c.Add(0, raw(rec))
	}
	if c.Sealed() != 2 {
		t.Fatalf("%d chunks sealed before Chunks, want 2", c.Sealed())
	}
	chunks := c.Chunks()
	if len(chunks) != 3 {
		t.Fatalf("%d chunks, want 3", len(chunks))
	}
	next := 0
	for i, ch := range chunks {
		if len(ch) > MaxDatagram {
			t.Fatalf("chunk %d is %d bytes", i, len(ch))
		}
		if i < 2 && len(ch)+recLen <= MaxDatagram {
			t.Errorf("chunk %d sealed at %d bytes with room for another record", i, len(ch))
		}
		_, a, _ := parseChunk(t, ch, recLen)
		for _, rec := range a {
			if !bytes.Equal(rec, bytes.Repeat([]byte{byte(next)}, recLen)) {
				t.Fatalf("record %d mangled by the roll-over", next)
			}
			next++
		}
	}
	if next != n {
		t.Fatalf("saw %d records, want %d", next, n)
	}
}

func TestChunkerEmptyAndOne(t *testing.T) {
	if chunks := testChunker(1, 1).Chunks(); len(chunks) != 1 || !bytes.Equal(chunks[0], []byte{'H', 1, 0, 0, 0, 0}) {
		t.Fatalf("no records: % x, want one header-only chunk", chunks)
	}
	c := testChunker(1, 1)
	c.Add(1, raw([]byte{9}))
	if got := c.One(); !bytes.Equal(got, []byte{'H', 1, 0, 0, 0, 1, 9}) {
		t.Fatalf("One = % x", got)
	}
	if room := testChunker(1, 1).Room(); room != MaxDatagram-6 {
		t.Fatalf("Room = %d", room)
	}
}

func TestChunkerPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("One over the count cap", func() {
		c := testChunker(1, 1)
		c.Add(0, raw([]byte{1}))
		c.Add(0, raw([]byte{2}))
		c.One()
	})
	mustPanic("record wider than a datagram", func() {
		testChunker(1, 1).Add(0, raw(make([]byte, MaxDatagram)))
	})
	mustPanic("sections out of order", func() {
		c := testChunker(2, 2)
		c.Add(1, raw([]byte{1}))
		c.Add(0, raw([]byte{2}))
	})
}

// FuzzReader drives an arbitrary read sequence over arbitrary bytes: the
// cursor never panics, never moves backwards or past the buffer, returns
// zero values once an error has latched, and never un-latches.
func FuzzReader(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 3, 'a', 'b', 'c', 9}, []byte{5, 0, 0})
	f.Add([]byte{0xff, 0xff, 1, 2, 3}, []byte{5})
	f.Add(bytes.Repeat([]byte{0x01}, 64), []byte{3, 3, 4, 2, 1, 0, 5, 6, 3})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r := NewReader(data)
		for _, op := range ops {
			before, failed := r.Remaining(), r.Err() != nil
			var zero bool
			switch op % 7 {
			case 0:
				zero = r.U8() == 0
			case 1:
				zero = r.U16() == 0
			case 2:
				zero = r.U32() == 0
			case 3:
				zero = r.U64() == 0
			case 4:
				zero = math.Float64bits(r.F64()) == 0
			case 5:
				s := r.Str()
				zero = s == ""
				if len(s) > MaxNameLen {
					t.Fatalf("Str returned %d bytes", len(s))
				}
			case 6:
				zero = r.Take(int(op)) == nil
			}
			after := r.Remaining()
			if after < 0 || after > before {
				t.Fatalf("op %d moved remaining %d → %d", op%7, before, after)
			}
			if failed && (r.Err() == nil || !zero || after != before) {
				t.Fatalf("op %d after a latched error: err %v, zero %v, remaining %d → %d",
					op%7, r.Err(), zero, before, after)
			}
		}
		if err := r.Done(); (err == nil) != (r.Err() == nil && r.Remaining() == 0) {
			t.Fatalf("Done = %v with err %v, remaining %d", err, r.Err(), r.Remaining())
		}
	})
}
