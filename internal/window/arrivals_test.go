package window

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/clock"
)

// refArrivals is the plain reference the packed window must match: a
// slice FIFO that applies the documented restart rule directly to the
// deltas between neighbouring samples.
type refArrivals struct {
	capacity int
	s        []ArrivalSample
}

// refFits is the restart rule as documented: the sequence delta must lie
// in [−2¹⁵, 2¹⁵) and the arrival delta in [−2⁴⁷, 2⁴⁷) ns, both taken
// modulo 2⁶⁴.
func refFits(prev, s ArrivalSample) bool {
	ds := int64(s.Seq - prev.Seq)
	dr := int64(s.Recv - prev.Recv)
	return ds >= -1<<15 && ds < 1<<15 && dr >= -1<<47 && dr < 1<<47
}

func (r *refArrivals) push(s ArrivalSample) {
	if n := len(r.s); n > 0 && !refFits(r.s[n-1], s) {
		r.s = r.s[:0]
	}
	r.s = append(r.s, s)
	if len(r.s) > r.capacity {
		copy(r.s, r.s[1:])
		r.s = r.s[:r.capacity]
	}
}

// check compares every observable of a against the reference.
func (r *refArrivals) check(t *testing.T, a *Arrivals, step int) {
	t.Helper()
	got := a.Export(nil)
	if len(got) == 0 {
		got = nil
	}
	want := r.s
	if len(want) == 0 {
		want = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: Export = %v, want %v", step, got, want)
	}
	if a.Len() != len(r.s) || a.Full() != (len(r.s) == r.capacity) || a.Cap() != r.capacity {
		t.Fatalf("step %d: Len/Full/Cap = %d/%v/%d, want %d/%v/%d", step,
			a.Len(), a.Full(), a.Cap(), len(r.s), len(r.s) == r.capacity, r.capacity)
	}
	var wantOld, wantNew ArrivalSample
	var sumSeq, sumRecv int64
	if n := len(r.s); n > 0 {
		wantOld, wantNew = r.s[0], r.s[n-1]
	}
	for _, s := range r.s {
		sumSeq += int64(s.Seq)
		sumRecv += int64(s.Recv)
	}
	old, okOld := a.Oldest()
	nw, okNew := a.Newest()
	if okOld != (len(r.s) > 0) || okNew != okOld || (okOld && (old != wantOld || nw != wantNew)) {
		t.Fatalf("step %d: Oldest/Newest = %v,%v / %v,%v, want %v / %v", step, old, okOld, nw, okNew, wantOld, wantNew)
	}
	if gs, gr := a.Sums(); gs != sumSeq || gr != sumRecv {
		t.Fatalf("step %d: Sums = %d,%d, want %d,%d", step, gs, gr, sumSeq, sumRecv)
	}
}

// drive pushes samples into a window of the given capacity and the
// reference side by side, comparing after every push.
func drive(t *testing.T, capacity int, samples []ArrivalSample) {
	t.Helper()
	a := NewArrivals(capacity)
	ref := &refArrivals{capacity: capacity}
	ref.check(t, &a, -1)
	for i, s := range samples {
		a.Push(s)
		ref.push(s)
		ref.check(t, &a, i)
	}
	a.Reset()
	ref.s = ref.s[:0]
	ref.check(t, &a, len(samples))
}

// TestArrivalsRestartBoundaries pins the restart rule at the edges of both
// fields: the last delta that fits keeps the history, the first that does
// not restarts the window at the new sample.
func TestArrivalsRestartBoundaries(t *testing.T) {
	base := ArrivalSample{Seq: 1 << 40, Recv: 1 << 50}
	cases := []struct {
		name    string
		ds, dr  int64
		restart bool
	}{
		{"seq +2^15-1", 1<<15 - 1, 1, false},
		{"seq +2^15", 1 << 15, 1, true},
		{"seq -2^15", -1 << 15, 1, false},
		{"seq -2^15-1", -1<<15 - 1, 1, true},
		{"recv +2^47-1", 1, 1<<47 - 1, false},
		{"recv +2^47", 1, 1 << 47, true},
		{"recv -2^47", 1, -1 << 47, false},
		{"recv -2^47-1", 1, -1<<47 - 1, true},
		{"both zero", 0, 0, false},
	}
	for _, c := range cases {
		a := NewArrivals(4)
		a.Push(base)
		next := ArrivalSample{Seq: base.Seq + uint64(c.ds), Recv: base.Recv + clock.Time(c.dr)}
		a.Push(next)
		wantLen := 2
		if c.restart {
			wantLen = 1
		}
		got := a.Export(nil)
		if a.Len() != wantLen || got[len(got)-1] != next {
			t.Errorf("%s: Len %d, Export %v; want Len %d ending in %v", c.name, a.Len(), got, wantLen, next)
		}
		if c.restart {
			if s, r := a.Sums(); s != int64(next.Seq) || r != int64(next.Recv) {
				t.Errorf("%s: sums %d,%d did not restart at the new sample", c.name, s, r)
			}
		}
	}
}

// randomSamples builds a sequence mixing ordinary heartbeat spacing with
// negative deltas, sequence jumps at and past 2¹⁵, arrival jumps at and
// past 2⁴⁷ ns, and values at the int64/uint64 extremes.
func randomSamples(rng *rand.Rand, n int) []ArrivalSample {
	out := make([]ArrivalSample, 0, n)
	s := ArrivalSample{Seq: uint64(rng.Int63n(1 << 20)), Recv: clock.Time(rng.Int63n(1 << 50))}
	for len(out) < n {
		switch k := rng.Intn(20); {
		case k < 12: // a heartbeat, maybe after losses
			s.Seq += uint64(1 + rng.Intn(4))
			s.Recv += clock.Time(rng.Int63n(int64(200 * clock.Millisecond)))
		case k < 15: // reordering or a clamped synthetic arrival
			s.Seq -= uint64(rng.Intn(1 << 15))
			s.Recv -= clock.Time(rng.Int63n(int64(clock.Second)))
		case k == 15:
			s.Seq += uint64(1<<15 - 1 + rng.Intn(3))
		case k == 16:
			s.Seq -= uint64(1<<15 + rng.Intn(2))
		case k == 17:
			s.Recv += clock.Time(1<<47 - 1 + rng.Int63n(3))
		case k == 18:
			s.Recv -= clock.Time(1<<47 + rng.Int63n(2))
		default: // anywhere at all
			s.Seq = rng.Uint64()
			s.Recv = clock.Time(rng.Uint64())
			if rng.Intn(2) == 0 {
				s.Recv = math.MaxInt64 - clock.Time(rng.Intn(3))
			}
		}
		out = append(out, s)
	}
	return out
}

// TestArrivalsMatchReferenceProperty drives the packed window and the
// slice reference over random sequences at many capacities.
func TestArrivalsMatchReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 3, 7, 64, 100} {
		for trial := 0; trial < 20; trial++ {
			drive(t, capacity, randomSamples(rng, 300))
		}
	}
}

// TestArrivalsCapacityFloor: a non-positive capacity holds one sample.
func TestArrivalsCapacityFloor(t *testing.T) {
	for _, c := range []int{0, -5} {
		a := NewArrivals(c)
		if a.Cap() != 1 {
			t.Fatalf("NewArrivals(%d).Cap() = %d, want 1", c, a.Cap())
		}
	}
}

// fuzzShifts scale a fuzzed 16-bit delta so that one input byte reaches
// small steps and both field boundaries alike.
var (
	fuzzSeqShifts  = [4]uint{0, 1, 2, 40}
	fuzzRecvShifts = [4]uint{0, 20, 32, 33}
)

// fuzzSamples decodes data into samples, five bytes each: a selector and
// two signed 16-bit deltas, each scaled by a selector-chosen shift; bit 4
// of the selector subtracts one more from both deltas, so a fuzzer reaches
// 2¹⁵−1 and 2⁴⁷−1 as easily as the round values.
func fuzzSamples(data []byte) []ArrivalSample {
	var out []ArrivalSample
	var s ArrivalSample
	for ; len(data) >= 5; data = data[5:] {
		sel := data[0]
		ds := int64(int16(binary.LittleEndian.Uint16(data[1:]))) << fuzzSeqShifts[sel&3]
		dr := int64(int16(binary.LittleEndian.Uint16(data[3:]))) << fuzzRecvShifts[sel>>2&3]
		if sel&16 != 0 {
			ds, dr = ds-1, dr-1
		}
		s.Seq += uint64(ds)
		s.Recv += clock.Time(dr)
		out = append(out, s)
	}
	return out
}

// FuzzArrivals holds the packed window to the slice reference on
// arbitrary push sequences: it must never panic, never lose a bit, and
// restart exactly where the reference does.
func FuzzArrivals(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 100, 0, 0, 1, 0, 100, 0, 0, 0xff, 0xff, 0x9c, 0xff})
	f.Add(uint8(2), []byte{1, 0, 0x40, 0, 0, 0x11, 0, 0x40, 0, 0, 3, 0, 0, 0, 0x80})
	f.Add(uint8(5), []byte{0x0c, 1, 0, 0, 0x40, 0x1c, 1, 0, 0, 0x40, 0x08, 1, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, capRaw uint8, data []byte) {
		drive(t, int(capRaw%16)+1, fuzzSamples(data))
	})
}

func BenchmarkArrivalsPush(b *testing.B) {
	a := NewArrivals(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Push(ArrivalSample{Seq: uint64(i), Recv: clock.Time(i) * clock.Time(clock.Millisecond)})
	}
}
