package persist

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// afterClock is a Clock with only Now/After/Sleep, the shape of an
// embedder's clock; the test fires each After channel by hand.
type afterClock struct{ calls chan chan clock.Time }

func (c *afterClock) Now() clock.Time      { return clock.Time(100 * clock.Second) }
func (c *afterClock) Sleep(clock.Duration) { panic("afterClock: Sleep") }
func (c *afterClock) After(clock.Duration) <-chan clock.Time {
	ch := make(chan clock.Time, 1)
	c.calls <- ch
	return ch
}

// TestStopWaitsThenFinalSnapshotIsLast stops the checkpointer while a
// journal flush is in flight: Stop waits it out, writes the shutdown
// snapshot, and nothing reaches the store after that.
func TestStopWaitsThenFinalSnapshotIsLast(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	clk := &afterClock{calls: make(chan chan clock.Time, 4)}
	var drains atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	var lastFull atomic.Int64
	full := func(now clock.Time) *Snapshot {
		lastFull.Store(int64(now))
		return &Snapshot{TakenAt: now, Streams: []StreamRecord{{Peer: "a", Seen: true}}}
	}
	drain := func(dst []Delta) []Delta {
		// Calls: 1 discards before the first snapshot, 2 and 3 are
		// flushes; the third blocks until the test lets it go.
		switch drains.Add(1) {
		case 2:
			return append(dst, sampleDeltas()...)
		case 3:
			close(entered)
			<-release
			return append(dst, sampleDeltas()...)
		}
		return dst
	}
	c := NewCheckpointer(clk, store, full, drain, CheckpointOptions{
		Interval:      10 * clock.Second,
		FlushInterval: clock.Second,
	})
	c.Start()
	for i := 1; i <= 3; i++ {
		(<-clk.calls) <- clock.Time(i) * clock.Time(clock.Second)
	}
	<-entered

	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a flush was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-stopped

	if got := c.Snapshots(); got != 2 {
		t.Fatalf("%d snapshots, want the first and the shutdown one", got)
	}
	if got := c.Deltas(); got != 6 {
		t.Fatalf("%d deltas journaled, want both flushes' 6", got)
	}
	if lastFull.Load() != int64(clk.Now()) || c.Errors() != 0 {
		t.Fatalf("last snapshot taken at %v with %d errors, want the shutdown instant %v and none",
			clock.Time(lastFull.Load()), c.Errors(), clk.Now())
	}
	snap, deltas, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.TakenAt != clk.Now() || len(deltas) != 0 {
		t.Fatalf("store holds a snapshot at %v and %d deltas, want the shutdown snapshot alone", snap.TakenAt, len(deltas))
	}
}
