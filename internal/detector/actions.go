package detector

import (
	"sort"
	"sync"

	"repro/internal/clock"
)

// ActionFunc reacts to a peer's suspicion level crossing a threshold.
type ActionFunc func(peer string, level float64, at clock.Time)

// Reactor implements the paper's graduated-reaction pattern (§I): "an
// application may take precautionary network measures when the
// confidence in a suspicion reaches a given low level, while it takes
// successively more drastic actions once the doubt progresses to higher
// levels". Applications register actions at ascending suspicion
// thresholds against an accrual detector; each action fires once per
// suspicion episode, in threshold order, and the episode rearms when the
// level falls back below the lowest threshold (the peer proved alive).
type Reactor struct {
	mu      sync.Mutex
	actions []reaction // sorted by threshold ascending
	fired   map[string]int
}

type reaction struct {
	threshold float64
	name      string
	fn        ActionFunc
}

// NewReactor returns an empty reactor.
func NewReactor() *Reactor {
	return &Reactor{fired: make(map[string]int)}
}

// On registers an action at the given suspicion threshold. Registration
// order is irrelevant; actions fire in ascending threshold order.
func (r *Reactor) On(threshold float64, name string, fn ActionFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.actions = append(r.actions, reaction{threshold: threshold, name: name, fn: fn})
	sort.SliceStable(r.actions, func(i, j int) bool {
		return r.actions[i].threshold < r.actions[j].threshold
	})
}

// Evaluate samples the peer's suspicion level and fires any newly crossed
// actions. Call it periodically (or on arrival events). It returns the
// names of the actions fired during this call. Actions run after the
// reactor's lock is released, so they may call back into it, and one
// that panics leaves the reactor usable (the episode counts as fired).
func (r *Reactor) Evaluate(peer string, level float64, at clock.Time) []string {
	var fired []string
	for _, a := range r.crossed(peer, level) {
		a.fn(peer, level, at)
		fired = append(fired, a.name)
	}
	return fired
}

// crossed advances the peer's episode to level and returns the actions
// that became due, in threshold order.
func (r *Reactor) crossed(peer string, level float64) []reaction {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.actions) == 0 {
		return nil
	}
	// Episode rearm: level fell below the lowest threshold.
	if level < r.actions[0].threshold {
		r.fired[peer] = 0
		return nil
	}
	idx := r.fired[peer]
	first := idx
	for idx < len(r.actions) && level >= r.actions[idx].threshold {
		idx++
	}
	r.fired[peer] = idx
	return append([]reaction(nil), r.actions[first:idx]...)
}

// EvaluateDetector samples an accrual detector directly.
func (r *Reactor) EvaluateDetector(peer string, det Accrual, now clock.Time) []string {
	return r.Evaluate(peer, det.SuspicionLevel(now), now)
}

// Reset clears all per-peer episode state.
func (r *Reactor) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fired = make(map[string]int)
}
