package registry

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/clock"
)

// TestWheelFiresAcrossLevels schedules entries whose delays land on
// every level of the hierarchy and checks each fires at its deadline
// rounded up to the tick, never early.
func TestWheelFiresAcrossLevels(t *testing.T) {
	const tick = clock.Millisecond
	w := newTimerWheel(tick, 0)

	delays := []clock.Duration{
		500 * clock.Microsecond, // sub-tick: rounds up to tick 1
		3 * clock.Millisecond,
		63 * clock.Millisecond,  // last level-0 slot
		64 * clock.Millisecond,  // first level-1 entry
		100 * clock.Millisecond, // level 1
		4095 * clock.Millisecond,
		4096 * clock.Millisecond, // level 2
		300 * clock.Second,       // level 3
	}
	fired := make(map[uint64]clock.Time)
	for i, d := range delays {
		w.schedule(clock.Time(d), "p", uint64(i))
	}
	if got := w.len(); got != len(delays) {
		t.Fatalf("len = %d, want %d", got, len(delays))
	}

	end := clock.Time(301 * clock.Second)
	step := 7 * clock.Millisecond // deliberately unaligned with the tick
	for now := clock.Time(0); now <= end; now = now.Add(step) {
		for _, x := range w.advance(now, nil) {
			if _, dup := fired[x.gen]; dup {
				t.Fatalf("entry %d fired twice", x.gen)
			}
			fired[x.gen] = now
		}
	}

	for i, d := range delays {
		at, ok := fired[uint64(i)]
		if !ok {
			t.Fatalf("entry %d (delay %v) never fired", i, d)
		}
		if at.Before(clock.Time(d)) {
			t.Errorf("entry %d fired at %v, before its deadline %v", i, at, d)
		}
		// May fire up to one tick late (rounding) plus one step late
		// (advance granularity of this test loop).
		if slack := at.Sub(clock.Time(d)); slack > tick+step {
			t.Errorf("entry %d fired %v after its deadline", i, slack)
		}
	}
	if got := w.len(); got != 0 {
		t.Fatalf("len after drain = %d, want 0", got)
	}
}

// TestWheelDueEntriesLandOnNextTick verifies scheduling at or before the
// current instant still fires (on the next tick) rather than being lost.
func TestWheelDueEntriesLandOnNextTick(t *testing.T) {
	const tick = 10 * clock.Millisecond
	w := newTimerWheel(tick, 0)
	w.advance(clock.Time(clock.Second), nil) // cur = 100 ticks

	w.schedule(clock.Time(0), "past", 1)
	w.schedule(clock.Time(clock.Second), "now", 2)

	exp := w.advance(clock.Time(clock.Second).Add(tick), nil)
	if len(exp) != 2 {
		t.Fatalf("expired %d entries, want 2", len(exp))
	}
}

// TestWheelFarFutureClamped verifies deadlines beyond the wheel span do
// not wrap into the near future.
func TestWheelFarFutureClamped(t *testing.T) {
	const tick = clock.Millisecond
	w := newTimerWheel(tick, 0)
	const span = int64(1) << (wheelLevels * wheelBits)
	far := clock.Time(clock.Duration(2*span) * tick)
	w.schedule(far, "far", 1)
	// Advancing well past "soon" must not fire the entry.
	if exp := w.advance(clock.Time(clock.Second), nil); len(exp) != 0 {
		t.Fatalf("far-future entry fired after 1s: %v", exp)
	}
}

// wheelStep is one step of a wheel scenario: schedule a burst of n
// entries due delay ticks after the wheel's current tick (≤ 0 is already
// due), or advance the wheel n ticks.
type wheelStep struct {
	advance bool
	delay   int64
	n       int
}

func burst(delay int64, n int) wheelStep { return wheelStep{delay: delay, n: n} }
func adv(ticks int) wheelStep            { return wheelStep{advance: true, n: ticks} }

func repeat(k int, steps ...wheelStep) []wheelStep {
	var out []wheelStep
	for i := 0; i < k; i++ {
		out = append(out, steps...)
	}
	return out
}

// wheelPeak tracks the live entries and non-empty slots seen at any
// observation point, which bound the blocks the pool may ever allocate.
type wheelPeak struct{ live, nonEmpty int }

// checkWheelPool walks w's slots and free list and checks the pool's
// bookkeeping: the slots' entries add up to len(), every block a slot
// holds but its tail is full, a free block holds no entry and no name,
// and the blocks ever allocated stay within ⌈peak live / block size⌉
// plus the peak number of non-empty slots plus one (the cascade's
// source block, freed only once its entries are re-placed).
func checkWheelPool(t testing.TB, w *timerWheel, peak *wheelPeak) {
	t.Helper()
	live, nonEmpty, held, free := 0, 0, 0, 0
	for l := range w.slots {
		for i := range w.slots[l] {
			s := &w.slots[l][i]
			if s.head == nil {
				if s.tail != nil {
					t.Fatalf("slot %d/%d: tail without head", l, i)
				}
				continue
			}
			nonEmpty++
			for b := s.head; b != nil; b = b.next {
				held++
				live += b.n
				if b.n == 0 || (b != s.tail && b.n != wheelBlockLen) || (b.next == nil) != (b == s.tail) {
					t.Fatalf("slot %d/%d: block of %d entries out of place in its list", l, i, b.n)
				}
			}
		}
	}
	for b := w.free; b != nil; b = b.next {
		free++
		if b.n != 0 || b.peers != [wheelBlockLen]string{} {
			t.Fatalf("free block holds %d entries or a name: %q", b.n, b.peers)
		}
	}
	if live != w.count || free != w.idle || held+free != w.blocks {
		t.Fatalf("pool: %d entries in slots, count %d; %d blocks held + %d free, %d allocated, idle %d",
			live, w.count, held, free, w.blocks, w.idle)
	}
	peak.live, peak.nonEmpty = max(peak.live, live), max(peak.nonEmpty, nonEmpty)
	if bound := (peak.live+wheelBlockLen-1)/wheelBlockLen + peak.nonEmpty + 1; w.blocks > bound {
		t.Fatalf("pool allocated %d blocks, bound %d (peak %d live, %d non-empty slots)",
			w.blocks, bound, peak.live, peak.nonEmpty)
	}
}

// runWheelSteps drives the block-pool wheel and refWheel through steps
// and fails on the first difference in expiries (content or order) or
// len(). The reference advances each step in one call; the pool wheel
// advances tick by tick so its pool is checked at every tick.
func runWheelSteps(t testing.TB, steps []wheelStep) {
	t.Helper()
	const tick = 10 * clock.Millisecond
	w, ref := newTimerWheel(tick, 0), newRefWheel(tick, 0)
	var peak wheelPeak
	var gen uint64
	for si, st := range steps {
		if st.advance {
			target := ref.cur + int64(st.n)
			want := ref.advance(clock.Time(target*int64(tick)), nil)
			var got []expiry
			for w.cur < target {
				got = w.advance(clock.Time((w.cur+1)*int64(tick)), got)
				checkWheelPool(t, w, &peak)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d (advance %d): expired\n %v\nwant\n %v", si, st.n, got, want)
			}
		} else {
			for i := 0; i < st.n; i++ {
				gen++
				// Anywhere inside the tick: the wheel rounds up to it.
				at := clock.Time((ref.cur+st.delay)*int64(tick)) - clock.Time(gen%7)
				peer := "s" + strconv.FormatUint(gen, 10)
				w.schedule(at, peer, gen)
				ref.schedule(at, peer, gen)
			}
			checkWheelPool(t, w, &peak)
		}
		if got, want := w.len(), ref.len(); got != want {
			t.Fatalf("step %d: len %d, want %d", si, got, want)
		}
	}
}

// TestWheelMatchesReference runs fixed scenarios through the block-pool
// wheel and the slice wheel it replaced, trivial to adversarial.
func TestWheelMatchesReference(t *testing.T) {
	run := func(name string, steps ...wheelStep) {
		t.Run(name, func(t *testing.T) { runWheelSteps(t, steps) })
	}
	const span = int64(1) << (wheelLevels * wheelBits)

	run("one entry", burst(3, 1), adv(5))                                                     // a single block, freed on drain
	run("burst into one slot", burst(5, 100), adv(10))                                        // four blocks in one FIFO
	run("bursts into all 64 level-0 slots in turn", repeat(64, burst(1, 40), adv(1))...)      // two blocks, reused 64 times
	run("level-1 slot cascades into level 0", burst(70, 95), burst(100, 40), adv(200))        // 1 s streams' re-arm slot
	run("cascade from level 2", burst(5000, 200), burst(4200, 40), burst(9000, 7), adv(9100)) // level 2 → 1 → 0
	run("far-future clamp", burst(2*span, 3), burst(span-1, 2), burst(10, 1), adv(5000))      // clamped to the top level
	run("entries already due during a cascade", burst(128, 50), burst(4096, 40), adv(4200))   // tick multiples of 64 and 4096
	run("schedule between advances", burst(70, 20), adv(30), burst(0, 10), burst(-5, 3),
		burst(50, 40), adv(10), burst(40, 31), adv(200)) // due, past and new entries while others wait
}

// FuzzWheel runs random sequences of the scenario steps through the
// block-pool wheel and the reference. Each step is three bytes: an
// advance (0–16k ticks), or a burst of up to 80 entries due now, on level
// 0, level 1 (on or off a 64-tick boundary), level 2 (on or off a
// 4096-tick boundary), or past the wheel's span.
func FuzzWheel(f *testing.F) {
	f.Add([]byte{0, 99, 9, 1, 10, 0})
	f.Add([]byte{0, 30, 3, 0, 30, 4, 0, 5, 5, 1, 255, 80})
	f.Add([]byte{0, 40, 6, 0, 40, 7, 0, 40, 2, 1, 200, 40, 0, 3, 0, 1, 255, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		const span = int64(1) << (wheelLevels * wheelBits)
		var steps []wheelStep
		cur := int64(0) // the wheel's tick when each step runs
		for i := 0; i+2 < len(data) && len(steps) < 48; i += 3 {
			op, a, b := data[i], int64(data[i+1]), int64(data[i+2])
			if op%2 == 1 {
				n := int(a) * (1 + int(b)%64)
				steps = append(steps, adv(n))
				cur += int64(n)
				continue
			}
			d := b >> 3
			var delay int64
			switch b & 7 {
			case 0:
				delay = -(d % 4)
			case 1, 2:
				delay = 1 + d%63
			case 3:
				delay = ((cur>>6)+2+d%4)<<6 - cur
			case 4:
				delay = 64 + d*131%4032
			case 5:
				delay = 4096 + d*2111
			case 6:
				delay = ((cur>>12)+2+d%2)<<12 - cur
			case 7:
				delay = span + d
			}
			steps = append(steps, burst(delay, 1+int(a)%80))
		}
		runWheelSteps(t, steps)
	})
}
