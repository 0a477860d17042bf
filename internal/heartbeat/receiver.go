package heartbeat

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Arrival is one decoded heartbeat delivery. Its eight words (64 B) and
// a method's receiver fill the nine integer argument registers of Go's
// amd64 ABI, so Registry.Observe(a) takes a in registers; one more word
// would pass it on the stack and slow every heartbeat.
type Arrival struct {
	// From is the datagram's source address.
	From string
	// Name is the logical stream name a wire-v3 heartbeat carries (empty
	// for v1/v2). A Receiver builds it over the pooled receive buffer, so
	// it is valid only during the handler call: a handler that keeps it
	// must copy it (strings.Clone).
	Name string
	Seq  uint64
	Send clock.Time // sender clock (from the payload)
	Recv clock.Time // receiver clock (local arrival)
	// Inc is the sender's incarnation (0 for v1 senders). Sequence
	// numbers restart from 0 within each incarnation.
	Inc uint64
}

// Handler consumes arrivals; it is invoked from the receiver goroutine,
// so it must be fast or hand off.
type Handler func(Arrival)

// Receiver drains an endpoint, decodes heartbeats, answers pings, routes
// foreign datagrams, and hands every heartbeat to the handler — the
// paper's monitoring process q. It keeps no per-stream state:
// duplicates, reordered beats and a dead incarnation's stragglers all
// reach the handler, and registry.Registry.Observe drops them as stale.
//
// On a multi-queue endpoint (transport.QueuedEndpoint with more than
// one ingest queue) Start runs one drain goroutine per queue, so the
// handler MUST be safe for concurrent use — registry.Registry.Observe
// is.
type Receiver struct {
	ep      transport.Endpoint
	clk     clock.Clock
	handler Handler
	foreign atomic.Pointer[func(transport.Inbound)]

	// The ingest path bumps the datagram counters with single atomic
	// adds; the metrics layer samples them at scrape time.
	received    atomic.Uint64
	foreignSeen atomic.Uint64
	pings       atomic.Uint64
	// decodeSec, when instrumented, observes per-datagram decode+dispatch
	// latency in seconds. Stored atomically so InstrumentMetrics is safe
	// even after Start.
	decodeSec atomic.Pointer[metrics.Histogram]

	done chan struct{}
}

// NewReceiver wraps the endpoint. The handler may be nil (pings are still
// answered, counters still maintained).
func NewReceiver(ep transport.Endpoint, clk clock.Clock, h Handler) *Receiver {
	if clk == nil {
		clk = clock.NewReal()
	}
	return &Receiver{ep: ep, clk: clk, handler: h, done: make(chan struct{})}
}

// SetForeign installs a handler for datagrams that are not heartbeat
// messages (wrong magic/version), letting another protocol — e.g. the
// gossip dissemination layer — share this endpoint's socket. Call it
// before Start. On a multi-queue endpoint the foreign handler, like the
// arrival handler, may be invoked concurrently.
func (r *Receiver) SetForeign(h func(transport.Inbound)) {
	if h == nil {
		r.foreign.Store(nil)
		return
	}
	r.foreign.Store(&h)
}

// Start launches the receive loop — one drain goroutine per ingest
// queue on a multi-queue endpoint, a single goroutine otherwise. It
// exits (and Wait unblocks) when the endpoint closes every queue. Each
// datagram's pooled receive buffer is released after dispatch, so
// handlers must not retain payload slices.
func (r *Receiver) Start() {
	queues := []<-chan transport.Inbound{r.ep.Recv()}
	if qep, ok := r.ep.(transport.QueuedEndpoint); ok {
		if n := qep.RecvQueues(); n > 1 {
			queues = queues[:0]
			for i := 0; i < n; i++ {
				queues = append(queues, qep.RecvQueue(i))
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(queues))
	for _, q := range queues {
		go func(q <-chan transport.Inbound) {
			defer wg.Done()
			for in := range q {
				r.handle(in)
				in.Release()
			}
		}(q)
	}
	go func() {
		wg.Wait()
		close(r.done)
	}()
}

func (r *Receiver) handle(in transport.Inbound) {
	var start clock.Time
	hist := r.decodeSec.Load()
	if hist != nil {
		start = r.clk.Now()
	}
	msg, nameRef, err := Decode(in.Payload)
	if err != nil {
		r.foreignSeen.Add(1)
		if f := r.foreign.Load(); f != nil {
			(*f)(in)
		}
		return // foreign datagram: not ours
	}
	switch msg.Kind {
	case KindPing:
		r.pings.Add(1)
		pong := Message{Kind: KindPong, Seq: msg.Seq, Time: msg.Time}
		_ = r.ep.Send(in.From, pong.Marshal())
	case KindHeartbeat:
		a := Arrival{From: in.From, Seq: msg.Seq, Send: msg.Time, Recv: r.clk.Now(), Inc: msg.Inc}
		if len(nameRef) > 0 {
			// No copy: the name is read during the handler call only.
			a.Name = unsafe.String(&nameRef[0], len(nameRef))
		}
		r.received.Add(1)
		if r.handler != nil {
			r.handler(a)
		}
	case KindPong:
		// Pongs are consumed by Prober instances sharing the endpoint;
		// a bare Receiver ignores them.
	}
	if hist != nil {
		hist.Observe(r.clk.Now().Sub(start).Seconds())
	}
}

// Wait blocks until the receive loop exits (endpoint closed).
func (r *Receiver) Wait() { <-r.done }

// Counters returns the number of heartbeats handed to the handler, and
// a stale count that is always 0: the registry filters stale beats.
func (r *Receiver) Counters() (received, stale uint64) {
	return r.received.Load(), 0
}

// InstrumentMetrics registers this receiver's instruments in set:
// accepted/foreign datagram counters, pings answered, and a
// decode+dispatch latency histogram observed on every datagram. The ingest path stays allocation-free — counters are
// the same atomics the receiver already maintains, sampled at scrape
// time, and the histogram update is two atomic adds plus a CAS.
func (r *Receiver) InstrumentMetrics(set *metrics.Set) {
	set.CounterFunc("sfd_receiver_accepted_total",
		"Heartbeats decoded and handed to the registry, which drops the stale ones.",
		r.received.Load)
	set.CounterFunc("sfd_receiver_foreign_total",
		"Datagrams that were not heartbeat protocol (handed to the foreign handler, e.g. gossip).",
		r.foreignSeen.Load)
	set.CounterFunc("sfd_receiver_pings_total",
		"Ping requests answered with pongs.",
		r.pings.Load)
	r.decodeSec.Store(set.Histogram("sfd_receiver_decode_seconds",
		"Per-datagram decode and dispatch latency.", nil))
}

// proberWindow bounds the outstanding-ping table: a seq this far behind
// the newest ping is considered lost and its (very late) pong ignored.
const proberWindow = 64

// Prober measures RTT with ping/pong exchanges over its own endpoint —
// the paper's parallel low-frequency ping process.
type Prober struct {
	ep  transport.Endpoint
	to  string
	clk clock.Clock

	mu       sync.Mutex
	rtt      *stats.EWMA
	rttStats stats.Welford
	nextSeq  uint64
	// pending holds the send time of each outstanding ping seq. A pong is
	// accepted exactly once per sent seq: duplicates and pongs for unsent
	// or stale seqs are dropped — otherwise a duplicated datagram double-
	// counts Samples() and folds the same RTT into the EWMA twice,
	// skewing the estimate toward whichever exchange the network repeats.
	pending map[uint64]clock.Time
	ignored uint64

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewProber probes `to` through ep. Gain 0.2 smooths the RTT estimate.
func NewProber(ep transport.Endpoint, to string, clk clock.Clock) *Prober {
	if clk == nil {
		clk = clock.NewReal()
	}
	return &Prober{
		ep: ep, to: to, clk: clk,
		rtt:     stats.NewEWMA(0.2),
		pending: make(map[uint64]clock.Time),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start sends a ping every interval and consumes pongs until Stop or
// endpoint close.
func (p *Prober) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(p.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		p.sendPing()
		for {
			select {
			case <-p.stop:
				return
			case <-ticker.C:
				p.sendPing()
			case in, ok := <-p.ep.Recv():
				if !ok {
					return
				}
				p.consume(in)
				in.Release()
			}
		}
	}()
}

func (p *Prober) sendPing() {
	now := p.clk.Now()
	p.mu.Lock()
	seq := p.nextSeq
	p.nextSeq++
	p.pending[seq] = now
	// Expire pings so old their pong window has passed; the table stays
	// bounded even when every pong is lost.
	for s := range p.pending {
		if s+proberWindow <= seq {
			delete(p.pending, s)
		}
	}
	p.mu.Unlock()
	msg := Message{Kind: KindPing, Seq: seq, Time: now}
	_ = p.ep.Send(p.to, msg.Marshal())
}

func (p *Prober) consume(in transport.Inbound) {
	msg, err := Unmarshal(in.Payload)
	if err != nil || msg.Kind != KindPong {
		return
	}
	now := p.clk.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	sent, outstanding := p.pending[msg.Seq]
	if !outstanding {
		p.ignored++ // duplicate, unsent, or stale seq
		return
	}
	delete(p.pending, msg.Seq)
	// RTT from our recorded send time, not the echoed timestamp: a peer
	// cannot skew the estimate by rewriting the payload.
	rtt := now.Sub(sent)
	if rtt < 0 {
		return
	}
	p.rtt.Add(float64(rtt))
	p.rttStats.Add(float64(rtt))
}

// RTT returns the smoothed round-trip estimate; ok is false before the
// first pong.
func (p *Prober) RTT() (clock.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.rtt.Initialized() {
		return 0, false
	}
	return clock.Duration(p.rtt.Value()), true
}

// Samples returns how many pongs have been accepted — nonzero proves the
// network is connected, the probe's second purpose in the paper. Each
// sent ping contributes at most one sample.
func (p *Prober) Samples() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rttStats.N()
}

// Ignored returns how many pongs were dropped as duplicates or as
// answers to unsent/stale pings.
func (p *Prober) Ignored() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ignored
}

// Stop terminates the probe loop.
func (p *Prober) Stop() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}
