// Package window provides fixed-capacity sliding windows: a generic ring
// buffer, a float64 sample window, and a packed (sequence, arrival)
// window; the latter two maintain running sums so the detectors can
// compute window statistics in O(1) per heartbeat.
//
// All four detectors in the paper maintain "a sliding window [with] the
// most recent samples of the arrival time" (§IV); the experiments fix the
// window size at WS = 1000 and §V-C studies the effect of varying it.
package window

import "math"

// Ring is a fixed-capacity FIFO ring buffer. Pushing onto a full ring
// evicts the oldest element (returned via Push's second result).
type Ring[T any] struct {
	buf   []T
	head  int // index of oldest element
	count int
}

// NewRing returns a ring buffer with the given capacity (must be > 0).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("window: ring capacity must be positive")
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Cap returns the fixed capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the current number of elements.
func (r *Ring[T]) Len() int { return r.count }

// Full reports whether the ring is at capacity.
func (r *Ring[T]) Full() bool { return r.count == len(r.buf) }

// Push appends x. If the ring was full the evicted oldest element is
// returned with evicted=true.
func (r *Ring[T]) Push(x T) (old T, evicted bool) {
	if r.count == len(r.buf) {
		old = r.buf[r.head]
		r.buf[r.head] = x
		r.head = (r.head + 1) % len(r.buf)
		return old, true
	}
	r.buf[(r.head+r.count)%len(r.buf)] = x
	r.count++
	return old, false
}

// At returns the i-th element counting from the oldest (0) to the newest
// (Len()-1). It panics on out-of-range access.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.count {
		panic("window: ring index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// Newest returns the most recently pushed element; ok is false when empty.
func (r *Ring[T]) Newest() (x T, ok bool) {
	if r.count == 0 {
		return x, false
	}
	return r.At(r.count - 1), true
}

// Oldest returns the least recently pushed element; ok is false when empty.
func (r *Ring[T]) Oldest() (x T, ok bool) {
	if r.count == 0 {
		return x, false
	}
	return r.At(0), true
}

// Do calls fn for each element from oldest to newest.
func (r *Ring[T]) Do(fn func(x T)) {
	for i := 0; i < r.count; i++ {
		fn(r.At(i))
	}
}

// Snapshot copies the contents, oldest first.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.At(i)
	}
	return out
}

// Reset empties the ring.
func (r *Ring[T]) Reset() {
	r.head, r.count = 0, 0
}

// Samples is a sliding window over float64 samples that maintains the
// running sum and sum of squares, giving O(1) mean and variance. The φ
// detector uses it for inter-arrival statistics; Chen-style estimators
// use the O(1) sum for the EA recurrence.
type Samples struct {
	ring *Ring[float64]
	sum  float64
	sum2 float64
}

// NewSamples returns a sample window with the given capacity.
func NewSamples(capacity int) *Samples {
	return &Samples{ring: NewRing[float64](capacity)}
}

// Push adds a sample, evicting the oldest when full.
func (s *Samples) Push(x float64) {
	old, evicted := s.ring.Push(x)
	if evicted {
		s.sum -= old
		s.sum2 -= old * old
	}
	s.sum += x
	s.sum2 += x * x
}

// Len returns the number of stored samples.
func (s *Samples) Len() int { return s.ring.Len() }

// Cap returns the window capacity.
func (s *Samples) Cap() int { return s.ring.Cap() }

// Full reports whether the window is at capacity (the paper only begins
// measuring "after the sliding window is full").
func (s *Samples) Full() bool { return s.ring.Full() }

// Sum returns the running sum of the stored samples.
func (s *Samples) Sum() float64 { return s.sum }

// Mean returns the window mean (0 when empty).
func (s *Samples) Mean() float64 {
	if s.ring.Len() == 0 {
		return 0
	}
	return s.sum / float64(s.ring.Len())
}

// Variance returns the window population variance, clamped at 0 against
// floating-point cancellation.
func (s *Samples) Variance() float64 {
	n := float64(s.ring.Len())
	if n < 2 {
		return 0
	}
	m := s.sum / n
	v := s.sum2/n - m*m
	if v < 0 {
		v = 0
	}
	return v
}

// StdDev returns the window population standard deviation.
func (s *Samples) StdDev() float64 {
	v := s.Variance()
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// At returns the i-th sample, oldest first.
func (s *Samples) At(i int) float64 { return s.ring.At(i) }

// Newest returns the most recent sample; ok is false when empty.
func (s *Samples) Newest() (float64, bool) { return s.ring.Newest() }

// Oldest returns the oldest sample; ok is false when empty.
func (s *Samples) Oldest() (float64, bool) { return s.ring.Oldest() }

// Snapshot copies the samples, oldest first.
func (s *Samples) Snapshot() []float64 { return s.ring.Snapshot() }

// Reset empties the window.
func (s *Samples) Reset() {
	s.ring.Reset()
	s.sum, s.sum2 = 0, 0
}

// Recompute rebuilds the running sums from the stored samples, shedding
// accumulated floating-point drift. Long-lived detectors (weeks of
// heartbeats, as in the paper's JP↔CH run) call this periodically.
func (s *Samples) Recompute() {
	s.sum, s.sum2 = 0, 0
	s.ring.Do(func(x float64) {
		s.sum += x
		s.sum2 += x * x
	})
}
