package window

import "repro/internal/clock"

// ArrivalSample is one (sequence, arrival) pair of an arrival window.
type ArrivalSample struct {
	Seq  uint64
	Recv clock.Time
}

// Bit layout of a wide delta word: the zigzag-encoded sequence delta in
// the low seqBits, the zigzag-encoded arrival delta (ns) in the rest.
const (
	seqBits  = 16
	recvBits = 64 - seqBits
)

// Bit layout of a narrow word: the zigzag of Δseq − 1 in the low
// narrowSeqBits (Δseq in [−7, 8]), the zigzag of the residual
// Δrecv − Δseq·step in nanoseconds in the rest (±2²⁷ ns, about ±134 ms).
const (
	narrowSeqBits = 4
	narrowResBits = 32 - narrowSeqBits
)

// maxStep bounds the learned step so that every narrow fit is a wide fit:
// |Δseq·step + residual| ≤ 8·2⁴⁰ + 2²⁷ < 2⁴⁷.
const maxStep = 1 << 40

// wideStep stands in for the step of a window that has been upgraded to
// wide words. A learned step is never negative.
const wideStep = -1

// escape is the narrow code that marks a slot whose wide word waits in the
// window's escape FIFO: all ones, which would otherwise be Δseq = −7 with
// a residual of −2²⁷ ns. packNarrow never emits it.
const escape = ^uint32(0)

// escapeShare bounds a narrow window's live escapes to one slot in
// escapeShare, and at least one. At the bound the escapes cost half a
// byte a slot where an upgrade adds four, and a pop copies at most
// capacity/16 words.
const escapeShare = 16

// Arrivals is a fixed-capacity FIFO of arrival samples that stores its
// samples packed and keeps exact running sums of their sequence numbers
// and arrival times.
//
// The oldest and newest samples are held whole. Every other sample is a
// word of deltas from the sample before it, in one of two encodings:
//
//   - narrow (how a window starts): one uint32 per sample, the zigzag of
//     Δseq − 1 in the low 4 bits and the zigzag of the residual
//     Δrecv − Δseq·step in the high 28. The step is learned from the
//     window's first delta (Δrecv/Δseq, bounded to [0, 2⁴⁰] ns, else 0),
//     so a heartbeat stream on time costs its jitter, not its interval.
//   - wide: one uint64 per sample, stored as two uint32 halves, the
//     zigzag Δseq in the low 16 bits and the zigzag Δrecv in the high 48
//     (±2⁴⁷ ns, about ±39 h).
//
// Eviction rebuilds the new oldest sample by adding its delta; Export
// walks forward from the oldest.
//
// Storage is lossless. A sample that fits a wide word but not a narrow
// one is an escape: its slot holds the escape code and its wide word goes
// to the back of a small FIFO, allocated at the window's first escape,
// which holds the escapes in slot order; evicting an escaped slot pops
// the front. A window upgrades only at the misfit that finds
// max(1, capacity/escapeShare) escapes already live: every stored sample
// is re-encoded wide, once, the FIFO is dropped, and the window never goes
// back. A sample whose delta from the newest does not fit a wide word
// (sequence delta outside [−2¹⁵, 2¹⁵), arrival delta outside [−2⁴⁷, 2⁴⁷)
// ns) restarts the window at that sample, and the sums and the escapes
// restart with it. Deltas are taken modulo 2⁶⁴, so any input — including
// wrapped or decreasing values — either round-trips to the bit or
// restarts, and the encoding in use is invisible to every accessor.
//
// An Arrivals shares its buffers with its copies; hold it in one place.
type Arrivals struct {
	// words[i] is the narrow word of slot i; once wide, words[2i] and
	// words[2i+1] are the low and high halves of slot i's wide word.
	words          []uint32
	esc            *[]uint64 // wide words of the escaped slots, oldest first; nil until the first escape
	step           int64     // Δrecv per unit Δseq that residuals are taken against; wideStep once upgraded
	head, count    int       // slot of the oldest sample; samples held
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
	return Arrivals{words: make([]uint32, capacity)}
}

// Push appends s, evicting the oldest sample when the window is full. A
// delta that does not fit a wide word restarts the window at s.
func (a *Arrivals) Push(s ArrivalSample) {
	if a.count == 0 {
		a.restart(s)
		return
	}
	if a.step != wideStep {
		if a.count == 1 {
			a.step = learnStep(a.newest, s)
		}
		w, ok := packNarrow(a.newest, s, a.step)
		if !ok && a.pushEscape(s) {
			w, ok = escape, true
		}
		if ok {
			n := len(a.words)
			a.words[a.tail(n)] = w
			if a.count == n {
				j := a.second(n)
				next := unpackNarrow(a.oldest, a.words[j], a.step)
				if a.words[j] == escape {
					next = unpack(a.oldest, a.popEscape())
				}
				a.evict(next, j)
			}
			a.add(s)
			return
		}
	}
	w, ok := pack(a.newest, s)
	if !ok {
		a.restart(s)
		return
	}
	if a.step != wideStep {
		a.upgrade()
	}
	n := len(a.words) / 2
	i := a.tail(n)
	a.words[2*i], a.words[2*i+1] = uint32(w), uint32(w>>32)
	if a.count == n {
		j := a.second(n)
		a.evict(unpack(a.oldest, a.wideWord(j)), j)
	}
	a.add(s)
}

// tail returns the slot the next sample's word goes into in a window of n
// slots: behind the newest, which is the oldest's slot when full.
func (a *Arrivals) tail(n int) int {
	i := a.head + a.count
	if i >= n {
		i -= n
	}
	return i
}

// second returns the slot after the oldest's in a window of n slots. When
// the window is full, Push has already written the new sample's word to
// the oldest's slot, so with one slot the second is the new sample.
func (a *Arrivals) second(n int) int {
	if a.head+1 == n {
		return 0
	}
	return a.head + 1
}

// evict drops the oldest sample; next is the sample after it, in slot j.
func (a *Arrivals) evict(next ArrivalSample, j int) {
	a.sumSeq -= int64(a.oldest.Seq)
	a.sumRecv -= int64(a.oldest.Recv)
	a.oldest, a.head = next, j
	a.count--
}

// add makes s, whose word is stored, the newest sample.
func (a *Arrivals) add(s ArrivalSample) {
	a.count++
	a.newest = s
	a.sumSeq += int64(s.Seq)
	a.sumRecv += int64(s.Recv)
}

// restart empties the window and holds s alone.
func (a *Arrivals) restart(s ArrivalSample) {
	a.head, a.count = 0, 1
	a.oldest, a.newest = s, s
	a.sumSeq, a.sumRecv = int64(s.Seq), int64(s.Recv)
	a.dropEscapes()
}

// escapes returns the number of live escapes.
func (a *Arrivals) escapes() int {
	if a.esc == nil {
		return 0
	}
	return len(*a.esc)
}

// pushEscape queues the wide word of s, the sample after the newest, at
// the back of the escape FIFO. It reports false, queueing nothing, when s
// does not fit a wide word or the window already holds its limit of
// escapes.
func (a *Arrivals) pushEscape(s ArrivalSample) bool {
	w, ok := pack(a.newest, s)
	if !ok || a.escapes() >= max(1, len(a.words)/escapeShare) {
		return false
	}
	if a.esc == nil {
		a.esc = new([]uint64)
	}
	*a.esc = append(*a.esc, w)
	return true
}

// popEscape removes and returns the oldest escape. It copies the rest
// down, so the FIFO keeps its capacity and a later push does not allocate.
func (a *Arrivals) popEscape() uint64 {
	q := *a.esc
	w := q[0]
	*a.esc = q[:copy(q, q[1:])]
	return w
}

// dropEscapes empties the escape FIFO, keeping its capacity.
func (a *Arrivals) dropEscapes() {
	if a.esc != nil {
		*a.esc = (*a.esc)[:0]
	}
}

// upgrade re-encodes every stored sample as a wide word in a new buffer,
// slot for slot, and drops the escape FIFO. Nothing is lost: a narrow fit
// is a wide fit.
func (a *Arrivals) upgrade() {
	n := len(a.words)
	wide := make([]uint32, 2*n)
	prev, e := a.oldest, 0
	for k := 1; k < a.count; k++ {
		i := (a.head + k) % n
		var s ArrivalSample
		s, e = a.next(prev, i, e)
		w, _ := pack(prev, s)
		wide[2*i], wide[2*i+1] = uint32(w), uint32(w>>32)
		prev = s
	}
	a.words, a.step, a.esc = wide, wideStep, nil
}

// wideWord returns the wide word of slot i of an upgraded window.
func (a *Arrivals) wideWord(i int) uint64 {
	return uint64(a.words[2*i]) | uint64(a.words[2*i+1])<<32
}

// next rebuilds the sample in slot i from prev, the sample before it. e is
// the index in the escape FIFO of the next escape on a walk from the
// oldest; next returns it advanced past slot i.
func (a *Arrivals) next(prev ArrivalSample, i, e int) (ArrivalSample, int) {
	if a.step == wideStep {
		return unpack(prev, a.wideWord(i)), e
	}
	if w := a.words[i]; w != escape {
		return unpackNarrow(prev, w, a.step), e
	}
	return unpack(prev, (*a.esc)[e]), e + 1
}

// Cap returns the fixed capacity.
func (a *Arrivals) Cap() int {
	if a.step == wideStep {
		return len(a.words) / 2
	}
	return len(a.words)
}

// Len returns the number of stored samples.
func (a *Arrivals) Len() int { return a.count }

// Full reports whether the window is at capacity.
func (a *Arrivals) Full() bool { return a.count == a.Cap() }

// Oldest returns the least recently pushed sample; ok is false when empty.
func (a *Arrivals) Oldest() (ArrivalSample, bool) { return a.oldest, a.count > 0 }

// Newest returns the most recently pushed sample; ok is false when empty.
func (a *Arrivals) Newest() (ArrivalSample, bool) { return a.newest, a.count > 0 }

// Sums returns Σ seq and Σ recv (ns) over the stored samples, with int64
// wrap-around.
func (a *Arrivals) Sums() (seq, recv int64) { return a.sumSeq, a.sumRecv }

// Export appends the stored samples to dst, oldest first.
func (a *Arrivals) Export(dst []ArrivalSample) []ArrivalSample {
	s, n, e := a.oldest, a.Cap(), 0
	for k := 0; k < a.count; k++ {
		if k > 0 {
			s, e = a.next(s, (a.head+k)%n, e)
		}
		dst = append(dst, s)
	}
	return dst
}

// Reset empties the window. An upgraded window stays wide.
func (a *Arrivals) Reset() {
	a.head, a.count = 0, 0
	a.oldest, a.newest = ArrivalSample{}, ArrivalSample{}
	a.sumSeq, a.sumRecv = 0, 0
	a.dropEscapes()
}

// learnStep is the step a narrow window predicts from its first delta,
// prev → s: Δrecv per unit Δseq, or 0 when that is undefined, negative or
// above maxStep.
func learnStep(prev, s ArrivalSample) int64 {
	ds := int64(s.Seq - prev.Seq)
	dr := int64(s.Recv - prev.Recv)
	if ds < 1 || dr < 0 || dr/ds > maxStep {
		return 0
	}
	return dr / ds
}

// packNarrow encodes s as a narrow word from prev against step; ok is
// false when Δseq − 1 or the residual does not fit its field, or when the
// word would be the escape code.
func packNarrow(prev, s ArrivalSample, step int64) (w uint32, ok bool) {
	ds := int64(s.Seq - prev.Seq)
	zs := zigzag(ds - 1)
	zr := zigzag(int64(s.Recv-prev.Recv) - ds*step)
	w = uint32(zs | zr<<narrowSeqBits)
	if zs>>narrowSeqBits != 0 || zr>>narrowResBits != 0 || w == escape {
		return 0, false
	}
	return w, true
}

// unpackNarrow rebuilds the sample that follows prev from its narrow word.
func unpackNarrow(prev ArrivalSample, w uint32, step int64) ArrivalSample {
	ds := unzigzag(uint64(w&(1<<narrowSeqBits-1))) + 1
	return ArrivalSample{
		Seq:  prev.Seq + uint64(ds),
		Recv: prev.Recv + clock.Time(unzigzag(uint64(w>>narrowSeqBits))+ds*step),
	}
}

// pack encodes s as a wide delta word from prev; ok is false when a delta
// does not fit its field.
func pack(prev, s ArrivalSample) (w uint64, ok bool) {
	ds := zigzag(int64(s.Seq - prev.Seq))
	dr := zigzag(int64(s.Recv - prev.Recv))
	if ds>>seqBits != 0 || dr>>recvBits != 0 {
		return 0, false
	}
	return ds | dr<<seqBits, true
}

// unpack rebuilds the sample that follows prev from its wide delta word.
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
