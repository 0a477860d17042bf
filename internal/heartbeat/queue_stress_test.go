package heartbeat

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/transport"
)

// mqEndpoint is a test-local multi-queue endpoint: senders push decoded
// datagrams straight onto per-shard queues by a keyed hash of the
// sender, as the UDP transport routes them, so the receiver's per-queue
// drain goroutines see exactly the concurrency the batched ingest path
// produces.
type mqEndpoint struct {
	queues []chan transport.Inbound
	seed   maphash.Seed
	closed chan struct{}
	once   sync.Once
}

func newMQEndpoint(queues, depth int) *mqEndpoint {
	m := &mqEndpoint{queues: make([]chan transport.Inbound, queues), seed: maphash.MakeSeed(), closed: make(chan struct{})}
	for i := range m.queues {
		m.queues[i] = make(chan transport.Inbound, depth)
	}
	return m
}

func (m *mqEndpoint) push(from string, payload []byte) {
	q := m.queues[maphash.String(m.seed, from)%uint64(len(m.queues))]
	select {
	case q <- transport.Inbound{From: from, Payload: payload}:
	case <-m.closed:
	}
}

func (m *mqEndpoint) Send(string, []byte) error                { return nil }
func (m *mqEndpoint) Recv() <-chan transport.Inbound           { return m.queues[0] }
func (m *mqEndpoint) Addr() string                             { return "mq-test" }
func (m *mqEndpoint) RecvQueues() int                          { return len(m.queues) }
func (m *mqEndpoint) RecvQueue(i int) <-chan transport.Inbound { return m.queues[i] }

func (m *mqEndpoint) Close() error {
	m.once.Do(func() {
		close(m.closed)
		for _, q := range m.queues {
			close(q)
		}
	})
	return nil
}

var _ transport.QueuedEndpoint = (*mqEndpoint)(nil)

// TestReceiverMultiQueueStress runs parallel queue drains over many
// senders. Run under -race this is the data-race proof; in any mode it
// checks per-sender delivery: no heartbeat handed on twice, none
// reordered, every sender's final sequence observed.
func TestReceiverMultiQueueStress(t *testing.T) {
	const (
		queues    = 8
		senders   = 64
		perSender = 200
	)
	ep := newMQEndpoint(queues, 1024)

	var mu sync.Mutex
	lastSeq := make(map[string]uint64)
	var accepted atomic.Uint64
	r := NewReceiver(ep, clock.NewSim(clock.Time(0)), func(a Arrival) {
		mu.Lock()
		if prev, ok := lastSeq[a.From]; ok && a.Seq <= prev {
			mu.Unlock()
			t.Errorf("sender %s: seq %d delivered after %d", a.From, a.Seq, prev)
			return
		}
		lastSeq[a.From] = a.Seq
		mu.Unlock()
		accepted.Add(1)
	})
	r.Start()

	var wg sync.WaitGroup
	// Senders: each walks its sequence forward exactly once.
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := fmt.Sprintf("10.0.%d.%d:9000", s/256, s%256)
			for seq := uint64(1); seq <= perSender; seq++ {
				msg := Message{Kind: KindHeartbeat, Seq: seq, Inc: 1}
				ep.push(from, msg.Marshal())
			}
		}(s)
	}
	wg.Wait()
	ep.Close()
	r.Wait()

	// Each seq was sent exactly once and queues preserve per-sender
	// order, so every heartbeat must have been handed on once, in order.
	recvd, _ := r.Counters()
	if accepted.Load() != recvd {
		t.Fatalf("handler saw %d arrivals, receiver counted %d", accepted.Load(), recvd)
	}
	if recvd != senders*perSender {
		t.Fatalf("accepted %d of %d heartbeats", recvd, senders*perSender)
	}
	mu.Lock()
	defer mu.Unlock()
	for s := 0; s < senders; s++ {
		from := fmt.Sprintf("10.0.%d.%d:9000", s/256, s%256)
		if lastSeq[from] != perSender {
			t.Fatalf("sender %s: final seq %d, want %d", from, lastSeq[from], uint64(perSender))
		}
	}
}

// TestReceiverMultiQueueDrainsAllQueues pins the Start contract: on a
// QueuedEndpoint every queue is drained, not just Recv().
func TestReceiverMultiQueueDrainsAllQueues(t *testing.T) {
	ep := newMQEndpoint(4, 16)
	got := make(chan string, 64)
	r := NewReceiver(ep, clock.NewSim(clock.Time(0)), func(a Arrival) { got <- a.From })
	r.Start()

	// One sender per queue, routed by hand to guarantee coverage.
	for q := 0; q < 4; q++ {
		msg := Message{Kind: KindHeartbeat, Seq: 1, Inc: 1}
		from := fmt.Sprintf("q%d", q)
		ep.queues[q] <- transport.Inbound{From: from, Payload: msg.Marshal()}
	}
	seen := make(map[string]bool)
	for len(seen) < 4 {
		seen[<-got] = true
	}
	ep.Close()
	r.Wait()
}
