package heartbeat

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// Sender periodically emits heartbeats to one destination — the paper's
// process p ("p may periodically send a message to q, perform local
// computation, or is subject to crash", §II-B).
type Sender struct {
	ep       transport.Endpoint
	to       string
	interval time.Duration
	clk      clock.Clock

	// Pacing, set by Pace before Start: each gap is drawn from
	// interval·[1−jitter, 1+jitter], and the first beat waits delay.
	jitter float64
	delay  time.Duration
	rng    *rand.Rand

	seq     uint64 // next sequence number (atomic)
	inc     atomic.Uint64
	name    atomic.Pointer[string]
	crashed atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// NewSender builds a sender emitting a heartbeat to `to` every interval
// on the given clock. Call Start to begin.
func NewSender(ep transport.Endpoint, to string, interval time.Duration, clk clock.Clock) *Sender {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if clk == nil {
		clk = clock.NewReal()
	}
	return &Sender{
		ep: ep, to: to, interval: interval, clk: clk,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

// Pace desynchronizes the sender from its fleet: every gap is jittered
// uniformly by ±jitter·interval (jitter in [0,1); 0 keeps the fixed
// cadence), and the first beat waits a delay drawn uniformly from
// [0, ramp). Each sender draws from its own randomly seeded stream, so
// senders paced alike still start and beat out of phase. Call it before
// Start.
func (s *Sender) Pace(jitter float64, ramp time.Duration) error {
	return s.pace(jitter, ramp, rand.New(rand.NewSource(rand.Int63())))
}

func (s *Sender) pace(jitter float64, ramp time.Duration, rng *rand.Rand) error {
	if jitter < 0 || jitter >= 1 {
		return fmt.Errorf("heartbeat: jitter must be in [0,1) (got %g)", jitter)
	}
	if ramp < 0 {
		return fmt.Errorf("heartbeat: ramp must be non-negative (got %v)", ramp)
	}
	s.jitter, s.rng, s.delay = jitter, rng, 0
	if ramp > 0 {
		s.delay = time.Duration(rng.Int63n(int64(ramp)))
	}
	return nil
}

// StartDelay is how long Start waits before the first heartbeat: the
// draw Pace made from its ramp, 0 without one.
func (s *Sender) StartDelay() time.Duration { return s.delay }

// next draws the gap to the following heartbeat.
func (s *Sender) next() time.Duration {
	if s.jitter == 0 {
		return s.interval
	}
	d := time.Duration((1 + s.jitter*(2*s.rng.Float64()-1)) * float64(s.interval))
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// Start launches the heartbeat loop in its own goroutine. Also answers
// nothing — senders only transmit; the Receiver handles pings.
func (s *Sender) Start() {
	go func() {
		defer close(s.done)
		if s.delay > 0 {
			t := time.NewTimer(s.delay)
			select {
			case <-s.stop:
				t.Stop()
				return
			case <-t.C:
			}
		}
		ticker := time.NewTicker(s.next())
		defer ticker.Stop()
		// Send the first heartbeat immediately so monitors see the
		// process as soon as it starts.
		s.emit()
		for {
			select {
			case <-s.stop:
				return
			case <-ticker.C:
				if s.crashed.Load() {
					return
				}
				s.emit()
				if s.jitter > 0 {
					ticker.Reset(s.next())
				}
			}
		}
	}()
}

func (s *Sender) emit() {
	seq := atomic.AddUint64(&s.seq, 1) - 1
	msg := Message{Kind: KindHeartbeat, Seq: seq, Time: s.clk.Now(), Inc: s.inc.Load()}
	if n := s.name.Load(); n != nil {
		msg.Name = *n
	}
	_ = s.ep.Send(s.to, msg.Marshal()) // unreliable channel: best effort
}

// SetName attaches a logical stream name carried in every subsequent
// heartbeat (wire v3): the monitor then tracks this sender under the
// name instead of its source address, so the identity survives socket
// rebinds. Set it before Start so the stream never flip-flops between
// address and name keys. Empty reverts to nameless v2 heartbeats.
func (s *Sender) SetName(name string) {
	if len(name) > MaxNameLen {
		panic("heartbeat: stream name exceeds 255 bytes")
	}
	if name == "" {
		s.name.Store(nil)
		return
	}
	s.name.Store(&name)
}

// Name returns the logical stream name ("" when unnamed).
func (s *Sender) Name() string {
	if n := s.name.Load(); n != nil {
		return *n
	}
	return ""
}

// SetIncarnation sets the incarnation number carried in every heartbeat.
// A process restarting after a crash sets a value greater than its
// previous life's, which resets monitor sequence filters and refutes any
// suspicion of the dead incarnation still circulating in gossip.
func (s *Sender) SetIncarnation(inc uint64) { s.inc.Store(inc) }

// Incarnation returns the current incarnation number.
func (s *Sender) Incarnation() uint64 { return s.inc.Load() }

// Crash simulates a process crash: heartbeats stop abruptly with no
// farewell message, exactly like Fig. 2's fourth case ("after p sends out
// the heartbeat m(i+1), p is crashed").
func (s *Sender) Crash() {
	s.crashed.Store(true)
	s.Stop()
}

// Crashed reports whether Crash was called.
func (s *Sender) Crashed() bool { return s.crashed.Load() }

// Stop terminates the loop gracefully and waits for it to exit.
func (s *Sender) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// Sent returns the number of heartbeats emitted so far.
func (s *Sender) Sent() uint64 { return atomic.LoadUint64(&s.seq) }
