package registry

import (
	"sync"

	"repro/internal/clock"
)

// refWheel is the slice-per-slot timer wheel the block-pool wheel
// replaced, kept verbatim as the reference its expiries are checked
// against: each slot is three parallel slices that keep their own peak
// capacity, and a cascade detaches a slot's arrays and lets them regrow.

type refSlot struct {
	ticks []int64
	gens  []uint64
	peers []string
}

func (s *refSlot) push(tick int64, gen uint64, peer string) {
	s.ticks = append(s.ticks, tick)
	s.gens = append(s.gens, gen)
	s.peers = append(s.peers, peer)
}

func (s *refSlot) reset() {
	clear(s.peers)
	s.ticks = s.ticks[:0]
	s.gens = s.gens[:0]
	s.peers = s.peers[:0]
}

type refWheel struct {
	mu    sync.Mutex
	tick  clock.Duration
	start clock.Time
	cur   int64
	count int
	slots [wheelLevels][wheelSlots]refSlot
}

func newRefWheel(tick clock.Duration, start clock.Time) *refWheel {
	if tick <= 0 {
		tick = 10 * clock.Millisecond
	}
	return &refWheel{tick: tick, start: start}
}

func (w *refWheel) ticksAt(t clock.Time) int64 {
	d := int64(t.Sub(w.start))
	if d <= 0 {
		return 0
	}
	return (d + int64(w.tick) - 1) / int64(w.tick)
}

func (w *refWheel) schedule(at clock.Time, peer string, gen uint64) {
	w.mu.Lock()
	ticks := w.ticksAt(at)
	if ticks <= w.cur {
		ticks = w.cur + 1
	}
	w.place(ticks, gen, peer)
	w.count++
	w.mu.Unlock()
}

func (w *refWheel) place(ticks int64, gen uint64, peer string) {
	const maxSpan = int64(1) << (wheelLevels * wheelBits)
	if ticks-w.cur >= maxSpan {
		ticks = w.cur + maxSpan - 1
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

func (w *refWheel) advance(now clock.Time, expired []expiry) []expiry {
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
		for l := 1; l < wheelLevels; l++ {
			if (w.cur>>uint((l-1)*wheelBits))&wheelMask != 0 {
				break
			}
			idx := (w.cur >> uint(l*wheelBits)) & wheelMask
			src := &w.slots[l][idx]
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

func (w *refWheel) len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}
