package detector_test

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
)

const msK = clock.Millisecond

func TestReactorFiresInThresholdOrder(t *testing.T) {
	r := detector.NewReactor()
	var log []string
	mk := func(name string) detector.ActionFunc {
		return func(peer string, level float64, at clock.Time) { log = append(log, name) }
	}
	// Registered out of order on purpose.
	r.On(2.0, "failover", mk("failover"))
	r.On(0.5, "warn", mk("warn"))
	r.On(1.0, "drain", mk("drain"))

	// Level climbs gradually: each threshold fires exactly once.
	for _, lvl := range []float64{0.1, 0.6, 0.7, 1.2, 1.2, 3.0, 5.0} {
		r.Evaluate("p", lvl, 0)
	}
	want := []string{"warn", "drain", "failover"}
	if len(log) != 3 {
		t.Fatalf("fired %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired %v, want %v", log, want)
		}
	}
}

func TestReactorSkipsStraightToHighLevel(t *testing.T) {
	r := detector.NewReactor()
	var log []string
	r.On(0.5, "warn", func(string, float64, clock.Time) { log = append(log, "warn") })
	r.On(2.0, "failover", func(string, float64, clock.Time) { log = append(log, "failover") })
	// A single jump past both thresholds fires both, low first.
	fired := r.Evaluate("p", 10, 0)
	if len(fired) != 2 || fired[0] != "warn" || fired[1] != "failover" {
		t.Fatalf("fired = %v", fired)
	}
	if len(log) != 2 {
		t.Fatalf("callbacks = %v", log)
	}
}

func TestReactorRearmsAfterRecovery(t *testing.T) {
	r := detector.NewReactor()
	count := 0
	r.On(1.0, "alarm", func(string, float64, clock.Time) { count++ })
	r.Evaluate("p", 2, 0) // fires
	r.Evaluate("p", 3, 0) // same episode: no refire
	if count != 1 {
		t.Fatalf("count = %d after same-episode evaluations", count)
	}
	r.Evaluate("p", 0.2, 0) // recovery below the lowest threshold
	r.Evaluate("p", 2, 0)   // new episode fires again
	if count != 2 {
		t.Fatalf("count = %d after rearm", count)
	}
}

func TestReactorPerPeerEpisodes(t *testing.T) {
	r := detector.NewReactor()
	fired := map[string]int{}
	r.On(1.0, "alarm", func(peer string, _ float64, _ clock.Time) { fired[peer]++ })
	r.Evaluate("a", 2, 0)
	r.Evaluate("b", 2, 0)
	r.Evaluate("a", 2, 0)
	if fired["a"] != 1 || fired["b"] != 1 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestReactorEmptyAndReset(t *testing.T) {
	r := detector.NewReactor()
	if got := r.Evaluate("p", 99, 0); got != nil {
		t.Fatalf("empty reactor fired %v", got)
	}
	count := 0
	r.On(1, "x", func(string, float64, clock.Time) { count++ })
	r.Evaluate("p", 2, 0)
	r.Reset()
	r.Evaluate("p", 2, 0)
	if count != 2 {
		t.Fatalf("Reset did not rearm: count=%d", count)
	}
}

func TestReactorWithSFDAccrual(t *testing.T) {
	det := core.New(core.Config{WindowSize: 20, Interval: 100 * msK, InitialMargin: 100 * msK})
	var last clock.Time
	for i := 0; i < 40; i++ {
		send := clock.Time(i) * clock.Time(100*msK)
		last = send.Add(2 * msK)
		det.Observe(uint64(i), send, last)
	}
	r := detector.NewReactor()
	var seq []string
	r.On(0.5, "precaution", func(string, float64, clock.Time) { seq = append(seq, "precaution") })
	r.On(1.0, "suspect", func(string, float64, clock.Time) { seq = append(seq, "suspect") })
	r.On(3.0, "evict", func(string, float64, clock.Time) { seq = append(seq, "evict") })

	// Sample as silence stretches: actions escalate in order.
	for dt := clock.Duration(0); dt <= 600*msK; dt += 20 * msK {
		r.EvaluateDetector("p", det, last.Add(100*msK).Add(dt))
	}
	want := []string{"precaution", "suspect", "evict"}
	if len(seq) != 3 {
		t.Fatalf("escalation = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("escalation = %v, want %v", seq, want)
		}
	}
}

// A panicking action used to reach Evaluate's deferred Unlock with the
// mutex already released: "fatal error: sync: unlock of unlocked mutex",
// which no recover() can catch. The panic must now reach the caller as
// itself and leave the reactor usable.
func TestReactorSurvivesPanickingAction(t *testing.T) {
	r := detector.NewReactor()
	r.On(1.0, "boom", func(string, float64, clock.Time) { panic("action failed") })
	calm := 0
	r.On(2.0, "calm", func(string, float64, clock.Time) { calm++ })

	func() {
		defer func() {
			if got := recover(); got != "action failed" {
				t.Fatalf("recovered %v, want the action's own panic", got)
			}
		}()
		r.Evaluate("p", 1.5, 0)
		t.Fatal("Evaluate returned normally from a panicking action")
	}()

	// The lock is free and the episode advanced past the action that blew up.
	if fired := r.Evaluate("p", 3, 0); len(fired) != 1 || fired[0] != "calm" || calm != 1 {
		t.Fatalf("after the panic: fired %v, calm ran %d times", fired, calm)
	}
	r.Evaluate("p", 0, 0) // rearm
	r.On(0.5, "early", func(string, float64, clock.Time) {})
	if fired := r.Evaluate("q", 0.7, 0); len(fired) != 1 || fired[0] != "early" {
		t.Fatalf("On/Evaluate after the panic: fired %v", fired)
	}
}
