package window

import "repro/internal/clock"

// ArrivalSample is one (sequence, arrival) pair of an arrival window.
type ArrivalSample struct {
	Seq  uint64
	Recv clock.Time
}

// Bit layout of a packed delta word: the zigzag-encoded sequence delta in
// the low seqBits, the zigzag-encoded arrival delta (ns) in the rest.
const (
	seqBits  = 16
	recvBits = 64 - seqBits
)

// Arrivals is a fixed-capacity FIFO of arrival samples that stores its
// samples packed and keeps exact running sums of their sequence numbers
// and arrival times.
//
// The oldest and newest samples are held whole. Every other sample is one
// uint64 word of deltas from the sample before it: the zigzag sequence
// delta in the low 16 bits and the zigzag arrival delta in nanoseconds in
// the high 48 (±2⁴⁷ ns, about ±39 h). Eviction rebuilds the new oldest
// sample by adding its delta; Export walks forward from the oldest. A
// window of n samples costs n words, half of what (seq, recv) pairs in a
// ring cost.
//
// Storage is lossless. A sample whose delta from the newest does not fit
// (sequence delta outside [−2¹⁵, 2¹⁵), arrival delta outside [−2⁴⁷, 2⁴⁷)
// ns) restarts the window at that sample, and the sums restart with it.
// Deltas are taken modulo 2⁶⁴, so any input — including wrapped or
// decreasing values — either round-trips to the bit or restarts.
//
// An Arrivals shares its buffer with its copies; hold it in one place.
type Arrivals struct {
	words          []uint64 // words[i]: delta of the sample in slot i from its predecessor
	head, count    int      // slot of the oldest sample; samples held
	oldest, newest ArrivalSample
	sumSeq         int64 // Σ seq (wrapping)
	sumRecv        int64 // Σ recv in ns (wrapping)
}

// NewArrivals returns an empty window holding up to capacity samples (at
// least one). It is returned by value so a detector can hold it inline.
func NewArrivals(capacity int) Arrivals {
	if capacity < 1 {
		capacity = 1
	}
	return Arrivals{words: make([]uint64, capacity)}
}

// Push appends s, evicting the oldest sample when the window is full. A
// delta that does not fit in a word restarts the window at s.
func (a *Arrivals) Push(s ArrivalSample) {
	w, ok := pack(a.newest, s)
	if a.count == 0 || !ok {
		a.head, a.count = 0, 1
		a.oldest, a.newest = s, s
		a.sumSeq, a.sumRecv = int64(s.Seq), int64(s.Recv)
		return
	}
	if a.count == len(a.words) {
		old := a.oldest
		a.sumSeq -= int64(old.Seq)
		a.sumRecv -= int64(old.Recv)
		if a.head++; a.head == len(a.words) {
			a.head = 0
		}
		a.count--
		if a.count > 0 {
			a.oldest = unpack(old, a.words[a.head])
		} else {
			a.oldest = s // capacity 1: s replaces the only sample
		}
	}
	i := a.head + a.count
	if i >= len(a.words) {
		i -= len(a.words)
	}
	a.words[i] = w
	a.count++
	a.newest = s
	a.sumSeq += int64(s.Seq)
	a.sumRecv += int64(s.Recv)
}

// Cap returns the fixed capacity.
func (a *Arrivals) Cap() int { return len(a.words) }

// Len returns the number of stored samples.
func (a *Arrivals) Len() int { return a.count }

// Full reports whether the window is at capacity.
func (a *Arrivals) Full() bool { return a.count == len(a.words) }

// Oldest returns the least recently pushed sample; ok is false when empty.
func (a *Arrivals) Oldest() (ArrivalSample, bool) { return a.oldest, a.count > 0 }

// Newest returns the most recently pushed sample; ok is false when empty.
func (a *Arrivals) Newest() (ArrivalSample, bool) { return a.newest, a.count > 0 }

// Sums returns Σ seq and Σ recv (ns) over the stored samples, with int64
// wrap-around.
func (a *Arrivals) Sums() (seq, recv int64) { return a.sumSeq, a.sumRecv }

// Export appends the stored samples to dst, oldest first.
func (a *Arrivals) Export(dst []ArrivalSample) []ArrivalSample {
	s := a.oldest
	for i := 0; i < a.count; i++ {
		if i > 0 {
			s = unpack(s, a.words[(a.head+i)%len(a.words)])
		}
		dst = append(dst, s)
	}
	return dst
}

// Reset empties the window.
func (a *Arrivals) Reset() {
	a.head, a.count = 0, 0
	a.oldest, a.newest = ArrivalSample{}, ArrivalSample{}
	a.sumSeq, a.sumRecv = 0, 0
}

// pack encodes s as a delta word from prev; ok is false when a delta does
// not fit its field.
func pack(prev, s ArrivalSample) (w uint64, ok bool) {
	ds := zigzag(int64(s.Seq - prev.Seq))
	dr := zigzag(int64(s.Recv - prev.Recv))
	if ds>>seqBits != 0 || dr>>recvBits != 0 {
		return 0, false
	}
	return ds | dr<<seqBits, true
}

// unpack rebuilds the sample that follows prev from its delta word.
func unpack(prev ArrivalSample, w uint64) ArrivalSample {
	return ArrivalSample{
		Seq:  prev.Seq + uint64(unzigzag(w&(1<<seqBits-1))),
		Recv: prev.Recv + clock.Time(unzigzag(w>>seqBits)),
	}
}

// zigzag maps signed to unsigned so small magnitudes of either sign get
// small codes: 0, −1, 1, −2, … → 0, 1, 2, 3, …
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
