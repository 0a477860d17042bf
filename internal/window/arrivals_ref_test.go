package window

import "repro/internal/clock"

// refArrivals is the arrival window as it stood before narrow words:
// every inner sample one 64-bit delta word, the zigzag sequence delta in
// the low 16 bits and the zigzag arrival delta in the high 48, and a delta
// that does not fit restarts the window. It is the reference the
// narrow/wide window must reproduce observable for observable.
type refArrivals struct {
	words          []uint64
	head, count    int
	oldest, newest ArrivalSample
	sumSeq         int64
	sumRecv        int64
}

func newRefArrivals(capacity int) *refArrivals {
	if capacity < 1 {
		capacity = 1
	}
	return &refArrivals{words: make([]uint64, capacity)}
}

func (a *refArrivals) Push(s ArrivalSample) {
	w, ok := refPack(a.newest, s)
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
			a.oldest = refUnpack(old, a.words[a.head])
		} else {
			a.oldest = s
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

func (a *refArrivals) Cap() int                      { return len(a.words) }
func (a *refArrivals) Len() int                      { return a.count }
func (a *refArrivals) Full() bool                    { return a.count == len(a.words) }
func (a *refArrivals) Oldest() (ArrivalSample, bool) { return a.oldest, a.count > 0 }
func (a *refArrivals) Newest() (ArrivalSample, bool) { return a.newest, a.count > 0 }
func (a *refArrivals) Sums() (seq, recv int64)       { return a.sumSeq, a.sumRecv }

func (a *refArrivals) Export(dst []ArrivalSample) []ArrivalSample {
	s := a.oldest
	for i := 0; i < a.count; i++ {
		if i > 0 {
			s = refUnpack(s, a.words[(a.head+i)%len(a.words)])
		}
		dst = append(dst, s)
	}
	return dst
}

func (a *refArrivals) Reset() {
	a.head, a.count = 0, 0
	a.oldest, a.newest = ArrivalSample{}, ArrivalSample{}
	a.sumSeq, a.sumRecv = 0, 0
}

func refPack(prev, s ArrivalSample) (w uint64, ok bool) {
	ds := refZigzag(int64(s.Seq - prev.Seq))
	dr := refZigzag(int64(s.Recv - prev.Recv))
	if ds>>16 != 0 || dr>>48 != 0 {
		return 0, false
	}
	return ds | dr<<16, true
}

func refUnpack(prev ArrivalSample, w uint64) ArrivalSample {
	return ArrivalSample{
		Seq:  prev.Seq + uint64(refUnzigzag(w&(1<<16-1))),
		Recv: prev.Recv + clock.Time(refUnzigzag(w>>16)),
	}
}

func refZigzag(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func refUnzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
