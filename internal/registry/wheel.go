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
// wakes for it within one fineGrid step (100 µs) after the deadline,
// sleeping whole steps from the end of its last Tick, instead of on the
// next WheelTick boundary. While a stream's safety margin (τ minus its
// next beat's expected arrival) is at least WheelTick, its next beat has
// moved τ on before the lookahead reaches it, so only imminent verdicts
// reach the heap and fine wakes follow the suspect rate. A healthy stream
// with a narrower margin reaches the heap too, in a share
// 1 − margin/WheelTick of its intervals. Before the driver sleeps, each
// Tick resolves every heap top whose stream has moved on — gone,
// re-armed, or beaten since the entry was pushed — so the driver wakes
// only for an entry that may still be due. With margins of at least half
// a WheelTick, a fleet of such streams wakes it once per WheelTick, for
// its earliest entry: by then every later entry's stream has beaten. A
// narrower margin m leaves about one fine wake per m of the tick, never
// more than one per fineGrid step.
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
//
// A slot is a FIFO list of fixed-size blocks taken from one free list
// for the whole wheel, so the wheel's memory follows its live population
// rather than the sum of every slot's peak: draining a level-0 slot and
// cascading an outer one hand their blocks back as they go, and the next
// slot to fill takes them. The free list never shrinks; the wheel holds
// its peak population, in 1 KiB blocks, and reuses it without
// allocating.

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

// wheelBlockLen is the capacity of one pool block: 31 entries of 32 B
// plus the n and next header make 1 008 B, which fills the runtime's
// 1 024 B size class with no tail left over.
const wheelBlockLen = 31

// wheelBlock stores up to wheelBlockLen entries struct-of-arrays: three
// parallel arrays instead of one []struct. A cascade scans ticks — a
// dense [31]int64 — to decide expiry, touching peers/gens only for
// entries that fire or move; at 1M streams that keeps the per-tick scan
// inside a few cache lines instead of striding over 40-byte entries whose
// string headers the comparison never needs.
type wheelBlock struct {
	ticks [wheelBlockLen]int64 // absolute fire tick
	gens  [wheelBlockLen]uint64
	peers [wheelBlockLen]string
	n     int // entries in use, a prefix of the arrays
	next  *wheelBlock
}

// wheelSlot is a FIFO list of blocks, filled at the tail. Every block but
// the tail is full: a slot only ever empties whole (drained on level 0,
// or cascaded inward).
type wheelSlot struct {
	head, tail *wheelBlock
}

type timerWheel struct {
	mu    sync.Mutex
	tick  clock.Duration
	start clock.Time
	cur   int64 // highest tick already processed
	count int
	// free is the wheel-wide list of blocks no slot holds. It never
	// shrinks, so the wheel's memory is its peak population in blocks.
	free   *wheelBlock
	blocks int // blocks ever allocated
	idle   int // blocks on free
	slots  [wheelLevels][wheelSlots]wheelSlot
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
			w.push(&w.slots[l][idx], ticks, gen, peer)
			return
		}
	}
}

// push appends an entry to slot s, taking a block from the free list (or
// the heap, when the list is empty) once the tail block is full. Must
// hold mu.
func (w *timerWheel) push(s *wheelSlot, tick int64, gen uint64, peer string) {
	b := s.tail
	if b == nil || b.n == wheelBlockLen {
		nb := w.free
		if nb != nil {
			w.free, nb.next = nb.next, nil
			w.idle--
		} else {
			nb = new(wheelBlock)
			w.blocks++
		}
		if b == nil {
			s.head = nb
		} else {
			b.next = nb
		}
		s.tail, b = nb, nb
	}
	b.ticks[b.n], b.gens[b.n], b.peers[b.n] = tick, gen, peer
	b.n++
}

// release returns b to the free list and the block after it, clearing
// b's names so fired peers do not pin their backing memory. Must hold mu.
func (w *timerWheel) release(b *wheelBlock) *wheelBlock {
	next := b.next
	clear(b.peers[:b.n])
	b.n, b.next = 0, w.free
	w.free = b
	w.idle++
	return next
}

// advance moves the wheel to instant now, appending every due entry to
// expired (which may be nil) and returning it. Entries cascade from
// outer levels toward level 0 as their slots come into range; each
// source block goes back to the free list as soon as its entries are
// re-placed, so a cascade needs at most one block more than the entries
// it holds.
func (w *timerWheel) advance(now clock.Time, expired []expiry) []expiry {
	w.mu.Lock()
	target := int64(now.Sub(w.start)) / int64(w.tick)
	for w.cur < target {
		w.cur++
		slot := &w.slots[0][w.cur&wheelMask]
		for b := slot.head; b != nil; b = w.release(b) {
			for i := 0; i < b.n; i++ {
				expired = append(expired, expiry{peer: b.peers[i], gen: b.gens[i]})
			}
			w.count -= b.n
		}
		*slot = wheelSlot{}
		// Each time a level's index wraps to 0 the next outer level's
		// current slot comes into range: redistribute it inward.
		for l := 1; l < wheelLevels; l++ {
			if (w.cur>>uint((l-1)*wheelBits))&wheelMask != 0 {
				break
			}
			src := &w.slots[l][(w.cur>>uint(l*wheelBits))&wheelMask]
			// place may append into this very slot on the innermost
			// level; detach its blocks before redistributing.
			b := src.head
			*src = wheelSlot{}
			for ; b != nil; b = w.release(b) {
				for i := 0; i < b.n; i++ {
					if b.ticks[i] <= w.cur {
						expired = append(expired, expiry{peer: b.peers[i], gen: b.gens[i]})
						w.count--
					} else {
						w.place(b.ticks[i], b.gens[i], b.peers[i])
					}
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

// blockStats returns the number of blocks slots hold and the number on
// the free list.
func (w *timerWheel) blockStats() (inUse, free int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.blocks - w.idle, w.idle
}

// fineGrid is the step of the driver's fine sleeps (capped at WheelTick):
// a fine wake sleeps a whole number of steps from the end of a Tick, to
// the first step at or after the heap's earliest deadline. Steps are
// counted from the Tick's end, never from the wheel's start, whose grid
// would give every sleep an arbitrary remainder.
//
// A step finer than the runtime's idle timer resolution costs nothing. An
// idle process's netpoller waits in whole milliseconds, so time.Sleep(d)
// wakes about 0.15 ms after the first whole millisecond at or after d,
// whether or not d is whole (Go 1.24.0, Linux, 2-vCPU VM, median of 200
// sleeps):
//
//	d      0.2   1.3   1.7   2.0   2.5  ms
//	woke   1.08  2.16  2.17  2.15  3.15 ms
//
// so a 100 µs step never wakes an idle driver later than a 1 ms step. A
// busy process's netpoller is awake (a monitor ingesting 40 000 datagrams
// a second), its timers fire on time, and a coarser step adds directly to
// every verdict's lag. The step is not zero: under clock.Sim a verdict
// would then fire exactly at its deadline, and a lag that always reads 0
// shows nothing.
const fineGrid = 100 * clock.Microsecond

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
