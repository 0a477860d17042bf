package registry

import (
	"sync"

	"repro/internal/clock"
)

// The registry replaces per-peer polling with a hierarchical timing
// wheel (Varghese & Lauck): each stream's next check instant — its
// freshness point τ_{k+1} (Eq. 11), its offline deadline, or its
// eviction deadline — is one entry in the wheel, and a single driver (a
// clock.Loop) advances the wheel and fires due entries for the whole
// fleet. Scheduling and firing are O(1) amortized regardless of fleet
// size.
//
// The wheel is advanced one tick ahead of the driver's clock. An entry
// that comes out of that lookahead for a stream still due inside the
// next tick — one that has not heartbeated since its freshness point was
// set — moves to a small min-heap (fineHeap) owned by the driver, which
// wakes for it within one fineGrid step after the deadline, sleeping whole
// steps from the end of its last Tick, instead of on the next WheelTick
// boundary. While a stream's safety margin (τ minus its next beat's
// expected arrival) is at least WheelTick, its next beat has moved τ on
// before the lookahead reaches it, so only imminent verdicts reach the
// heap and fine wakes follow the suspect rate. A healthy stream with a
// narrower margin reaches the heap too, in a share 1 − margin/WheelTick
// of its intervals; a fleet of them wakes the driver up to once per
// fineGrid step, the rate of a 1 ms WheelTick.
//
// Entries are lazily invalidated rather than removed: every stream
// carries a generation counter, each entry captures the generation it
// was scheduled under, and a fired entry whose generation no longer
// matches the stream's is ignored. A heartbeat that merely pushes a
// stream's deadline further out does NOT touch the wheel at all — the
// old entry fires, notices the authoritative deadline is in the future,
// and re-arms there. This makes the per-heartbeat ingest cost
// wheel-free, which is what keeps it sub-microsecond at 10k+ streams.
// Stale entries occupy a slot until their original fire tick arrives;
// their number is bounded by the transition rate, not the heartbeat
// rate.

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 5 // span = tick × 64^5 ≈ 124 days at 10 ms/tick
)

// expiry identifies a fired entry; the registry resolves it against the
// stream's current generation.
type expiry struct {
	peer string
	gen  uint64
}

// wheelSlot stores its entries struct-of-arrays: three parallel slices
// instead of one []struct. advance scans ticks — a dense []int64 — to
// decide expiry, touching peers/gens only for entries that actually
// fire or cascade; at 1M streams that keeps the per-tick scan inside a
// few cache lines instead of striding over 40-byte entries whose
// string headers the comparison never needs.
type wheelSlot struct {
	ticks []int64 // absolute fire tick
	gens  []uint64
	peers []string
}

func (s *wheelSlot) push(tick int64, gen uint64, peer string) {
	s.ticks = append(s.ticks, tick)
	s.gens = append(s.gens, gen)
	s.peers = append(s.peers, peer)
}

// reset empties the slot, keeping capacity but clearing the string
// slice so fired peers don't pin their backing memory.
func (s *wheelSlot) reset() {
	clear(s.peers)
	s.ticks = s.ticks[:0]
	s.gens = s.gens[:0]
	s.peers = s.peers[:0]
}

type timerWheel struct {
	mu    sync.Mutex
	tick  clock.Duration
	start clock.Time
	cur   int64 // highest tick already processed
	count int
	slots [wheelLevels][wheelSlots]wheelSlot
}

func newTimerWheel(tick clock.Duration, start clock.Time) *timerWheel {
	if tick <= 0 {
		tick = 10 * clock.Millisecond
	}
	return &timerWheel{tick: tick, start: start}
}

// ticksAt converts an absolute instant to a fire tick, rounding up so an
// entry never fires before its deadline.
func (w *timerWheel) ticksAt(t clock.Time) int64 {
	d := int64(t.Sub(w.start))
	if d <= 0 {
		return 0
	}
	return (d + int64(w.tick) - 1) / int64(w.tick)
}

// schedule inserts a fire-once entry for (peer, gen) at instant `at`.
// Instants at or before the current tick land on the next tick.
func (w *timerWheel) schedule(at clock.Time, peer string, gen uint64) {
	w.mu.Lock()
	ticks := w.ticksAt(at)
	if ticks <= w.cur {
		ticks = w.cur + 1
	}
	w.place(ticks, gen, peer)
	w.count++
	w.mu.Unlock()
}

// place files an entry at the innermost level whose span covers its
// delay. Must hold mu.
func (w *timerWheel) place(ticks int64, gen uint64, peer string) {
	const maxSpan = int64(1) << (wheelLevels * wheelBits)
	if ticks-w.cur >= maxSpan {
		ticks = w.cur + maxSpan - 1 // clamp: fires early, then re-arms
	}
	delta := ticks - w.cur
	for l := 0; l < wheelLevels; l++ {
		if delta < int64(1)<<uint((l+1)*wheelBits) || l == wheelLevels-1 {
			idx := (ticks >> uint(l*wheelBits)) & wheelMask
			w.slots[l][idx].push(ticks, gen, peer)
			return
		}
	}
}

// advance moves the wheel to instant now, appending every due entry to
// expired (which may be nil) and returning it. Entries cascade from
// outer levels toward level 0 as their slots come into range.
func (w *timerWheel) advance(now clock.Time, expired []expiry) []expiry {
	w.mu.Lock()
	target := int64(now.Sub(w.start)) / int64(w.tick)
	for w.cur < target {
		w.cur++
		slot := &w.slots[0][w.cur&wheelMask]
		for i := range slot.ticks {
			expired = append(expired, expiry{peer: slot.peers[i], gen: slot.gens[i]})
			w.count--
		}
		slot.reset()
		// Each time a level's index wraps to 0 the next outer level's
		// current slot comes into range: redistribute it inward.
		for l := 1; l < wheelLevels; l++ {
			if (w.cur>>uint((l-1)*wheelBits))&wheelMask != 0 {
				break
			}
			idx := (w.cur >> uint(l*wheelBits)) & wheelMask
			src := &w.slots[l][idx]
			// place may append into this very slot on the innermost
			// level; detach the arrays before redistributing.
			ticks, gens, peers := src.ticks, src.gens, src.peers
			src.ticks, src.gens, src.peers = nil, nil, nil
			for i := range ticks {
				if ticks[i] <= w.cur {
					expired = append(expired, expiry{peer: peers[i], gen: gens[i]})
					w.count--
				} else {
					w.place(ticks[i], gens[i], peers[i])
				}
			}
		}
	}
	w.mu.Unlock()
	return expired
}

// boundaryAfter returns the first tick boundary strictly after t.
func (w *timerWheel) boundaryAfter(t clock.Time) clock.Time {
	return w.start.Add(clock.Duration(w.ticksAt(t.Add(1))) * w.tick)
}

// reached returns the instant the wheel has been advanced to: every entry
// due at or before it has been handed out, and a later schedule for an
// instant at or before it lands on the next tick.
func (w *timerWheel) reached() clock.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.start.Add(clock.Duration(w.cur) * w.tick)
}

// len returns the number of live (scheduled, not yet fired) entries,
// including lazily-invalidated ones still awaiting their tick.
func (w *timerWheel) len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// fineGrid is the step of the driver's fine sleeps (capped at WheelTick):
// a fine wake sleeps a whole number of steps from the end of a Tick. It is
// the Go runtime's timer resolution on Linux, where netpoll waits in whole
// milliseconds and a sleep with a fractional millisecond overshoots by up
// to one more; a zero-width step would let a verdict fire exactly at its
// deadline, with no measurable lag at all under clock.Sim.
const fineGrid = clock.Millisecond

// fineEntry is one looked-ahead deadline on the driver's heap.
type fineEntry struct {
	at   clock.Time // the stream's deadline when the entry was pushed
	gen  uint64
	peer string
}

// fineHeap is a binary min-heap of looked-ahead deadlines ordered by
// (at, gen), so equal deadlines pop in a deterministic order. It belongs
// to the wheel driver and takes no lock; it holds only entries due at or
// before the wheel's reached instant.
type fineHeap []fineEntry

func (h fineHeap) less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].gen < h[j].gen)
}

func (h *fineHeap) push(e fineEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the earliest entry; the heap must be non-empty.
func (h *fineHeap) pop() fineEntry {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s[n] = fineEntry{} // do not pin the popped peer's name
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}
