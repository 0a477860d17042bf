package window

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/trace"
)

// wide reports whether a has been upgraded to wide words.
func (a *Arrivals) wide() bool { return a.step == wideStep }

// check compares every observable of a against the reference window, and
// holds a's escapes to its live escaped slots and its limit.
func check(t *testing.T, a *Arrivals, ref *refArrivals, step int) {
	t.Helper()
	marked := 0
	for k := 1; k < a.count && !a.wide(); k++ {
		if a.words[(a.head+k)%len(a.words)] == escape {
			marked++
		}
	}
	if marked != a.escapes() || marked > max(1, a.Cap()/escapeShare) || (a.wide() && a.esc != nil) {
		t.Fatalf("step %d: %d escaped slots, %d escapes queued, wide %v, capacity %d",
			step, marked, a.escapes(), a.wide(), a.Cap())
	}
	got, want := a.Export(nil), ref.Export(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: Export = %v, want %v", step, got, want)
	}
	if a.Len() != ref.Len() || a.Full() != ref.Full() || a.Cap() != ref.Cap() {
		t.Fatalf("step %d: Len/Full/Cap = %d/%v/%d, want %d/%v/%d", step,
			a.Len(), a.Full(), a.Cap(), ref.Len(), ref.Full(), ref.Cap())
	}
	old, okOld := a.Oldest()
	nw, okNew := a.Newest()
	wantOld, wantOkOld := ref.Oldest()
	wantNew, wantOkNew := ref.Newest()
	if old != wantOld || okOld != wantOkOld || nw != wantNew || okNew != wantOkNew {
		t.Fatalf("step %d: Oldest/Newest = %v,%v / %v,%v, want %v,%v / %v,%v", step,
			old, okOld, nw, okNew, wantOld, wantOkOld, wantNew, wantOkNew)
	}
	gs, gr := a.Sums()
	ws, wr := ref.Sums()
	if gs != ws || gr != wr {
		t.Fatalf("step %d: Sums = %d,%d, want %d,%d", step, gs, gr, ws, wr)
	}
}

// shape is how a driven window stood after its last push.
type shape struct {
	len, escapes int
	wide         bool
}

// drive pushes samples into a window of the given capacity and the
// reference side by side, comparing after every push, then resets both.
// It returns the window's shape as it stood before the reset.
func drive(t *testing.T, capacity int, samples []ArrivalSample) shape {
	t.Helper()
	a := NewArrivals(capacity)
	ref := newRefArrivals(capacity)
	check(t, &a, ref, -1)
	for i, s := range samples {
		a.Push(s)
		ref.Push(s)
		check(t, &a, ref, i)
	}
	end := shape{a.Len(), a.escapes(), a.wide()}
	a.Reset()
	ref.Reset()
	check(t, &a, ref, len(samples))
	return end
}

// walk builds samples from base by successive (Δseq, Δrecv) deltas.
func walk(base ArrivalSample, deltas ...[2]int64) []ArrivalSample {
	out := []ArrivalSample{base}
	for _, d := range deltas {
		base.Seq += uint64(d[0])
		base.Recv += clock.Time(d[1])
		out = append(out, base)
	}
	return out
}

// onTime returns n deltas of one heartbeat each, interval iv apart.
func onTime(n int, iv int64) [][2]int64 {
	out := make([][2]int64, n)
	for i := range out {
		out[i] = [2]int64{1, iv}
	}
	return out
}

// cat joins runs of deltas.
func cat(parts ...[][2]int64) [][2]int64 {
	var out [][2]int64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestArrivalsRestartBoundaries pins the restart rule at the edges of both
// wide fields: the last delta that fits keeps the history, the first that
// does not restarts the window at the new sample.
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

// TestArrivalsNarrowBoundaries pins the narrow fit at the edges of both
// narrow fields, against a step learned from a 1 s first delta: the last
// delta that fits is a narrow word, the first that does not is an escape,
// the window stays narrow, and neither loses a sample.
func TestArrivalsNarrowBoundaries(t *testing.T) {
	const iv = int64(clock.Second)
	cases := []struct {
		name   string
		ds, r  int64 // Δseq and the residual Δrecv − Δseq·step
		escape bool
	}{
		{"on time", 1, 0, false},
		{"seq +8", 8, 0, false},
		{"seq +9", 9, 0, true},
		{"seq -7", -7, 0, false},
		{"seq -8", -8, 0, true},
		{"residual +2^27-1", 1, 1<<27 - 1, false},
		{"residual +2^27", 1, 1 << 27, true},
		{"residual -2^27", 1, -1 << 27, false},
		{"residual -2^27-1", 1, -1<<27 - 1, true},
		{"seq -7 residual -2^27+1", -7, -1<<27 + 1, false},
		{"seq -7 residual -2^27: the escape code", -7, -1 << 27, true},
	}
	for _, c := range cases {
		got := drive(t, 8, walk(ArrivalSample{Seq: 7, Recv: 1 << 50}, [2]int64{1, iv}, [2]int64{c.ds, c.ds*iv + c.r}))
		if got.len != 3 || got.wide || (got.escapes == 1) != c.escape {
			t.Errorf("%s: %+v, want Len 3, narrow, escaped %v", c.name, got, c.escape)
		}
	}
}

// TestArrivalsStepRule pins how the step is learned: from the first delta
// after a start, restart or reset, as Δrecv/Δseq, and 0 when that is
// negative, undefined or above 2⁴⁰ ns; at the largest step a narrow fit
// is still a wide fit.
func TestArrivalsStepRule(t *testing.T) {
	base := ArrivalSample{Seq: 100, Recv: 1 << 50}
	cases := []struct {
		name  string
		first [2]int64
		step  int64
	}{
		{"one beat", [2]int64{1, 5e8}, 5e8},
		{"after a loss", [2]int64{3, 3e8 + 2}, 1e8},
		{"max step", [2]int64{1, maxStep}, maxStep},
		{"above max", [2]int64{1, maxStep + 1}, 0},
		{"backwards in time", [2]int64{1, -5}, 0},
		{"same seq", [2]int64{0, 5e8}, 0},
		{"seq backwards", [2]int64{-1, 5e8}, 0},
	}
	for _, c := range cases {
		s := ArrivalSample{Seq: base.Seq + uint64(c.first[0]), Recv: base.Recv + clock.Time(c.first[1])}
		if got := learnStep(base, s); got != c.step {
			t.Errorf("%s: step %d, want %d", c.name, got, c.step)
		}
	}
	// At the largest step the widest narrow delta is a wide fit.
	got := drive(t, 4, walk(base, [2]int64{1, maxStep}, [2]int64{8, 8*maxStep + 1<<27 - 1}))
	if got != (shape{len: 3}) {
		t.Fatalf("max step: %+v, want Len 3, narrow, no escape", got)
	}
	// A restart and a Reset both relearn the step.
	a := NewArrivals(4)
	for _, s := range walk(base, [2]int64{1, 1e9}, [2]int64{1 << 15, 1}, [2]int64{1, 2e9}) {
		a.Push(s)
	}
	if a.step != 2e9 || a.wide() {
		t.Fatalf("after restart: step %d wide %v, want 2e9 narrow", a.step, a.wide())
	}
	a.Reset()
	for _, s := range walk(base, [2]int64{1, 3e9}) {
		a.Push(s)
	}
	if a.step != 3e9 {
		t.Fatalf("after Reset: step %d, want 3e9", a.step)
	}
}

// Deltas the scenario tables build windows from, against a 1 s step.
var (
	late  = [][2]int64{{1, int64(clock.Second) + 1<<28}}     // fits wide, not narrow
	jump  = [][2]int64{{1 << 15, int64(clock.Second)}}       // fits nothing: restart
	lossy = [][2]int64{{20, 20*int64(clock.Second) + 3}}     // Δseq past the narrow field
	code  = [][2]int64{{-7, -7*int64(clock.Second) - 1<<27}} // a narrow fit whose word is the escape code
)

// beats returns n deltas of one heartbeat each, on time against a 1 s step.
func beats(n int) [][2]int64 { return onTime(n, int64(clock.Second)) }

// TestArrivalsUpgradeScenarios walks the narrow → wide switch through the
// shapes that stress the slot arithmetic, each against the reference after
// every push. One misfit is an escape; the window upgrades at the misfit
// that finds its limit of escapes live (one below 32 slots).
func TestArrivalsUpgradeScenarios(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		deltas   [][2]int64
		want     shape
	}{
		{"stays narrow", 8, beats(30), shape{len: 8}},
		{"escape mid-window, then evicted", 8, cat(beats(4), late, beats(20)), shape{len: 8}},
		{"upgrade mid-window", 8, cat(beats(4), late, beats(2), late, beats(20)), shape{len: 8, wide: true}},
		{"upgrade on the evicting push", 4, cat(beats(3), late, beats(1), late, beats(2)), shape{len: 4, wide: true}},
		{"upgrade after the head wrapped", 5, cat(beats(13), lossy, late, beats(3)), shape{len: 5, wide: true}},
		{"restart after an upgrade stays wide", 6, cat(beats(2), late, late, beats(2), jump, beats(2)), shape{len: 3, wide: true}},
		{"restart while narrow stays narrow", 6, cat(beats(3), jump, beats(9)), shape{len: 6}},
		// One sample relearns the step on every push, and its escape is
		// popped on the push that makes it: it never upgrades.
		{"capacity 1", 1, cat(beats(3), late, lossy, jump, beats(3)), shape{len: 1}},
		{"capacity 3", 3, cat(beats(7), late, beats(7), jump, late), shape{len: 2}},
		{"capacity 7", 7, cat(beats(9), lossy, late, beats(11)), shape{len: 7, wide: true}},
	}
	for _, c := range cases {
		if got := drive(t, c.capacity, walk(ArrivalSample{Seq: 1, Recv: 1 << 45}, c.deltas...)); got != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
	}
}

// escapeRun drives a window of the given capacity over deltas from a fixed
// base and requires its shape at the end.
func escapeRun(t *testing.T, capacity int, deltas [][2]int64, want shape) {
	t.Helper()
	if got := drive(t, capacity, walk(ArrivalSample{Seq: 1 << 33, Recv: 1 << 52}, deltas...)); got != want {
		t.Errorf("capacity %d: %+v, want %+v", capacity, got, want)
	}
}

// TestArrivalsEscapeScenarios walks escapes through the slot arithmetic,
// trivial to adversarial, each against the reference after every push.
func TestArrivalsEscapeScenarios(t *testing.T) {
	escapeRun(t, 8, cat(beats(3), late), shape{5, 1, false})                                   // one escape, window not yet full
	escapeRun(t, 4, cat(beats(3), late), shape{4, 1, false})                                   // escaped on the push that evicts
	escapeRun(t, 4, cat(beats(3), late, beats(3)), shape{4, 0, false})                         // popped on the push that makes it the oldest
	escapeRun(t, 5, cat(beats(13), late, beats(2)), shape{5, 1, false})                        // after the head wrapped
	escapeRun(t, 5, cat(beats(3), late, beats(4), late, beats(4), late), shape{5, 1, false})   // three in turn, each the oldest before the next
	escapeRun(t, 1, cat(late, lossy, late, lossy), shape{1, 0, false})                         // capacity 1: pushed and popped at once
	escapeRun(t, 3, cat(beats(4), late, beats(1), late), shape{3, 0, true})                    // capacity 3: second live misfit upgrades
	escapeRun(t, 3, cat(beats(4), late, beats(2), late), shape{3, 1, false})                   // capacity 3: the first is the oldest by then
	escapeRun(t, 5, cat(beats(6), lossy, beats(1), lossy), shape{5, 0, true})                  // capacity 5
	escapeRun(t, 7, cat(beats(9), late, beats(6), late), shape{7, 1, false})                   // capacity 7
	escapeRun(t, 32, cat(beats(40), late, beats(3), late), shape{32, 2, false})                // 32 slots hold two
	escapeRun(t, 32, cat(beats(40), late, beats(3), late, beats(3), late), shape{32, 0, true}) // the limit reached: upgrade re-encodes both
	escapeRun(t, 48, cat(beats(60), late, late, late, beats(50)), shape{48, 0, false})         // 48 slots hold three, all evicted again
	escapeRun(t, 8, cat(beats(3), code, beats(2)), shape{7, 1, false})                         // a narrow fit whose word is the escape code
	escapeRun(t, 8, cat(beats(3), late, jump, beats(3)), shape{4, 0, false})                   // a restart clears the escapes
	escapeRun(t, 8, cat(beats(3), late, late, jump, late), shape{2, 0, true})                  // a restart keeps an upgraded window wide
}

// TestArrivalsEscapesReuseTheirFIFO: once a window has escaped, pushing
// and popping escapes allocates nothing, and neither does a Reset followed
// by new escapes: the FIFO keeps its capacity.
func TestArrivalsEscapesReuseTheirFIFO(t *testing.T) {
	a := NewArrivals(32)
	seq := 0
	next := func(n int) { // n beats a second apart, every 16th one 2²⁸ ns late
		for ; n > 0; n-- {
			seq++
			a.Push(ArrivalSample{Seq: uint64(seq), Recv: clock.Time(seq)*clock.Time(clock.Second) + clock.Time(seq/16)<<28})
		}
	}
	next(100)
	churn := testing.AllocsPerRun(10, func() { next(160) })
	reset := testing.AllocsPerRun(10, func() { a.Reset(); next(160) })
	if churn != 0 || reset != 0 || a.wide() || a.escapes() == 0 {
		t.Fatalf("allocs per 10 escapes %.0f, after a Reset %.0f; wide %v with %d escapes, want 0, 0, narrow with some",
			churn, reset, a.wide(), a.escapes())
	}
}

// randomSamples builds a sequence mixing heartbeats on time and late,
// loss gaps, negative deltas, sequence jumps at and past 2¹⁵, arrival
// jumps at and past 2⁴⁷ ns, and values at the int64/uint64 extremes.
func randomSamples(rng *rand.Rand, n int) []ArrivalSample {
	out := make([]ArrivalSample, 0, n)
	s := ArrivalSample{Seq: uint64(rng.Int63n(1 << 20)), Recv: clock.Time(rng.Int63n(1 << 50))}
	iv := 1 + rng.Int63n(int64(2*clock.Second))
	for len(out) < n {
		switch k := rng.Intn(40); {
		case k < 20: // a heartbeat with jitter, sometimes past the narrow residual
			s.Seq++
			s.Recv += clock.Time(iv + rng.Int63n(1<<28) - 1<<27 + int64(rng.Intn(2)))
		case k < 24: // a heartbeat after losses
			d := 1 + rng.Intn(12)
			s.Seq += uint64(d)
			s.Recv += clock.Time(int64(d)*iv + rng.Int63n(int64(200*clock.Millisecond)))
		case k < 30: // reordering or a clamped synthetic arrival
			s.Seq -= uint64(rng.Intn(1 << 15))
			s.Recv -= clock.Time(rng.Int63n(int64(clock.Second)))
		case k < 32:
			s.Seq += uint64(1<<15 - 1 + rng.Intn(3))
		case k < 34:
			s.Seq -= uint64(1<<15 + rng.Intn(2))
		case k < 36:
			s.Recv += clock.Time(1<<47 - 1 + rng.Int63n(3))
		case k < 38:
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

// TestArrivalsMatchReferenceProperty drives the narrow/wide window and the
// wide-only reference over random sequences at many capacities.
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

// TestNarrowFitOnPresets measures, over every paper trace preset, how
// often a received heartbeat's delta from the previous one misfits a
// narrow word, for three splits of the 32 bits between Δseq − 1 and the
// residual against the preset's Δt, and the most escapes a paper-default
// window of 1 000 holds live at once. It holds the chosen 4/28 split under
// 0.5 % on every preset, and requires that no preset upgrades the window;
// run with -v for the table.
func TestNarrowFitOnPresets(t *testing.T) {
	splits := []uint{3, narrowSeqBits, 6}
	for _, name := range trace.PresetNames() {
		gp, err := trace.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Collect(gp.Meta, trace.NewGenerator(gp)).Records
		step := int64(gp.Meta.Interval)
		misfits := make([]int, len(splits))
		pairs, upgradeAt, peak := 0, -1, 0
		a := NewArrivals(1000)
		var prev ArrivalSample
		for i, r := range recs {
			if r.Lost {
				continue
			}
			s := ArrivalSample{Seq: r.Seq, Recv: r.RecvTime}
			if a.Len() > 0 {
				pairs++
				ds := int64(s.Seq - prev.Seq)
				zr := zigzag(int64(s.Recv-prev.Recv) - ds*step)
				for k, sb := range splits {
					if zigzag(ds-1)>>sb != 0 || zr>>(32-sb) != 0 {
						misfits[k]++
					}
				}
			}
			a.Push(s)
			if upgradeAt < 0 && a.wide() {
				upgradeAt = i
			}
			peak = max(peak, a.escapes())
			prev = s
		}
		rate := func(k int) float64 { return 100 * float64(misfits[k]) / float64(pairs) }
		t.Logf("%-8s misfit %d/%d %.3f%%  %d/%d %.3f%%  %d/%d %.3f%%  peak live escapes %d of %d",
			name, splits[0], 32-splits[0], rate(0), splits[1], 32-splits[1], rate(1),
			splits[2], 32-splits[2], rate(2), peak, 1000/escapeShare)
		if rate(1) > 0.5 {
			t.Errorf("%s: %.3f%% of deltas misfit the %d/%d split, want ≤ 0.5%%",
				name, rate(1), splits[1], 32-splits[1])
		}
		if upgradeAt >= 0 {
			t.Errorf("%s: the window upgraded at record %d, want it narrow throughout", name, upgradeAt)
		}
	}
}

// fuzzShifts scale a fuzzed 16-bit delta so that one input byte reaches
// small steps and the narrow and wide field boundaries alike.
var (
	fuzzSeqShifts  = [4]uint{0, 1, 2, 40}
	fuzzRecvShifts = [4]uint{0, 20, 12, 33}
)

// fuzzSamples decodes data into samples, five bytes each: a selector and
// two signed 16-bit deltas, each scaled by a selector-chosen shift. Bit 4
// of the selector subtracts one more from both deltas, so a fuzzer reaches
// 2¹⁵−1 and 2⁴⁷−1 as easily as the round values; bit 5 adds the previous
// arrival delta to this one, so runs of on-time heartbeats with a small
// residual — the narrow words — are as easy to reach as anything else.
func fuzzSamples(data []byte) []ArrivalSample {
	var out []ArrivalSample
	var s ArrivalSample
	var prevDr int64
	for ; len(data) >= 5; data = data[5:] {
		sel := data[0]
		ds := int64(int16(binary.LittleEndian.Uint16(data[1:]))) << fuzzSeqShifts[sel&3]
		dr := int64(int16(binary.LittleEndian.Uint16(data[3:]))) << fuzzRecvShifts[sel>>2&3]
		if sel&16 != 0 {
			ds, dr = ds-1, dr-1
		}
		if sel&32 != 0 {
			dr += prevDr
		}
		s.Seq += uint64(ds)
		s.Recv += clock.Time(dr)
		prevDr = dr
		out = append(out, s)
	}
	return out
}

// FuzzArrivals holds the narrow/wide window to the wide-only reference on
// arbitrary push sequences: it must never panic, never lose a bit, and
// restart exactly where the reference does, whichever encoding it holds.
func FuzzArrivals(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 100, 0, 0, 1, 0, 100, 0, 0, 0xff, 0xff, 0x9c, 0xff})
	f.Add(uint8(2), []byte{1, 0, 0x40, 0, 0, 0x11, 0, 0x40, 0, 0, 3, 0, 0, 0, 0x80})
	f.Add(uint8(5), []byte{0x0c, 1, 0, 0, 0x40, 0x1c, 1, 0, 0, 0x40, 0x08, 1, 0, 0, 0x80})
	// A 1 ms step on time twice, a residual of −2²⁷ that still fits, then
	// deltas whose residuals do not.
	f.Add(uint8(7), []byte{0x04, 1, 0, 1, 0, 0x20, 1, 0, 0, 0, 0x20, 1, 0, 0, 0,
		0x28, 1, 0, 0, 0x80, 0x38, 1, 0, 0, 0x80, 0x20, 1, 0, 0, 0})
	// Runs of beats 2²⁰ ns apart broken by beats 2²⁸ ns apart, a residual
	// past 2²⁷: escapes that come and go, then more live than the window
	// holds. Capacity 33 holds two, capacity 4 one.
	beat, late := []byte{0x04, 1, 0, 1, 0}, []byte{0x04, 1, 0, 0, 1}
	seed := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	on := func(n int) []byte { return bytes.Repeat(beat, n) }
	f.Add(uint8(32), seed(on(40), late, on(40), late, on(3), late, on(3), late, on(5)))
	f.Add(uint8(3), seed(on(5), late, on(3), late, on(2), late, on(2)))
	f.Fuzz(func(t *testing.T, capRaw uint8, data []byte) {
		drive(t, int(capRaw%48)+1, fuzzSamples(data))
	})
}

// BenchmarkArrivalsPush measures one Push into a full window of 1 000:
// narrow (on-time heartbeats), wide (the same heartbeats after an
// upgrade), escape (heartbeats on time but for every hundredth, a second
// late, so ten escapes are live and one is pushed and one popped per
// hundred pushes) and restart (every push a sequence jump no word holds).
func BenchmarkArrivalsPush(b *testing.B) {
	const iv = clock.Millisecond
	push := func(b *testing.B, a *Arrivals, seqStep uint64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.Push(ArrivalSample{Seq: uint64(i) * seqStep, Recv: clock.Time(i) * clock.Time(iv)})
		}
	}
	b.Run("narrow", func(b *testing.B) {
		a := NewArrivals(1000)
		push(b, &a, 1)
	})
	b.Run("wide", func(b *testing.B) {
		// Arrivals an hour apart, then none: every delta misfits, and the
		// misfit past the escape limit upgrades the window.
		a := NewArrivals(1000)
		for i := 0; !a.wide(); i++ {
			if i > 1000 {
				b.Fatal("window did not upgrade")
			}
			a.Push(ArrivalSample{Seq: uint64(i), Recv: clock.Time(i%2) * clock.Time(3600*clock.Second)})
		}
		push(b, &a, 1)
	})
	b.Run("escape", func(b *testing.B) {
		at := func(i int) ArrivalSample {
			return ArrivalSample{Seq: uint64(i), Recv: clock.Time(i)*clock.Time(iv) + clock.Time(i/100)*clock.Time(clock.Second)}
		}
		a := NewArrivals(1000)
		const warm = 2050 // two windows and more: the escape FIFO is at its peak
		for i := 0; i < warm; i++ {
			a.Push(at(i))
		}
		if a.wide() || a.escapes() != 10 {
			b.Fatalf("warm window: wide %v with %d escapes, want narrow with 10", a.wide(), a.escapes())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Push(at(warm + i))
		}
	})
	b.Run("restart", func(b *testing.B) {
		a := NewArrivals(1000)
		push(b, &a, 1<<15)
	})
}
