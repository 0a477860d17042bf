package load

import (
	"container/heap"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/fanout"
	"repro/internal/heartbeat"
	"repro/internal/transport"
)

func errNameTooLong(name string) error {
	return fmt.Errorf("load: stream name %q exceeds %d bytes", name, heartbeat.MaxNameLen)
}

// FleetOptions configures one cohort of logical senders.
type FleetOptions struct {
	// Prefix is the hierarchical stream-name prefix; sender i is named
	// "<Prefix>/s-<i>". It must satisfy the registry's topic-name rules.
	Prefix string
	// Count is how many logical senders to run.
	Count int
	// Targets are the monitor addresses every heartbeat is sent to
	// (more than one → dual-send, so gossiping monitors observe the
	// same streams and can corroborate).
	Targets []string
	// Pacer shapes per-sender timing (interval, jitter, ramp).
	Pacer Pacer
	// Sockets is the UDP socket-pool size logical senders multiplex
	// over — the trick that fits 50k senders under the fd limit.
	// Default min(64, Count), at least 2 when Count > 1 so Rebind has
	// somewhere to move.
	Sockets int
	// Seed drives jitter and victim/rebind randomness (0 means 1).
	Seed int64
	// Clock supplies heartbeat timestamps; share one clock.Real with the
	// monitor so ground-truth latency subtracts on a single timebase.
	// nil defaults to a fresh real clock.
	Clock clock.Clock
	// Chaos, when non-nil, wraps every pool socket so the controller's
	// armed impairments shape this cohort's outbound heartbeats.
	Chaos *chaos.Controller
	// Incarnation is the starting incarnation number (default 1, so a
	// restart's bump is visible against the zero value).
	Incarnation uint64
}

func (o *FleetOptions) normalize() error {
	if o.Count <= 0 {
		return fmt.Errorf("load: fleet count must be positive (got %d)", o.Count)
	}
	if len(o.Targets) == 0 {
		return fmt.Errorf("load: fleet needs at least one target")
	}
	if err := o.Pacer.Validate(); err != nil {
		return err
	}
	if o.Prefix == "" {
		o.Prefix = "load"
	}
	if err := fanout.ValidateName(o.Prefix); err != nil {
		return fmt.Errorf("load: bad name prefix: %w", err)
	}
	if len(o.Prefix) > heartbeat.MaxNameLen-16 {
		return errNameTooLong(o.Prefix)
	}
	if o.Sockets <= 0 {
		o.Sockets = 64
		if o.Sockets > o.Count {
			o.Sockets = o.Count
		}
		if o.Count > 1 && o.Sockets < 2 {
			o.Sockets = 2
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
	if o.Incarnation == 0 {
		o.Incarnation = 1
	}
	return nil
}

// poolSock is one pooled UDP socket exposed as a transport.Endpoint so
// the chaos wrapper layers over it unchanged. It only transmits; Recv
// returns nil (nothing ever pumps it). Target addresses are resolved
// once at fleet build, so concurrent Sends (the scheduler plus delayed
// chaos re-sends) read an immutable map.
type poolSock struct {
	conn  *net.UDPConn
	addr  string
	addrs map[string]*net.UDPAddr
}

func (s *poolSock) Send(to string, p []byte) error {
	a := s.addrs[to]
	if a == nil {
		var err error
		if a, err = net.ResolveUDPAddr("udp", to); err != nil {
			return err
		}
	}
	_, err := s.conn.WriteToUDP(p, a)
	return err
}

func (s *poolSock) Recv() <-chan transport.Inbound { return nil }
func (s *poolSock) Addr() string                   { return s.addr }
func (s *poolSock) Close() error                   { return s.conn.Close() }

// vsender is one logical sender's scheduler state, owned by the
// scheduler goroutine (no locks).
type vsender struct {
	name  string
	seq   uint64
	inc   uint64
	sock  int
	alive bool
	next  clock.Time
	hidx  int // index in the heap, -1 when not queued
}

// senderHeap orders live senders by next beat instant.
type senderHeap []*vsender

func (h senderHeap) Len() int           { return len(h) }
func (h senderHeap) Less(i, j int) bool { return h[i].next < h[j].next }
func (h senderHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].hidx, h[j].hidx = i, j }
func (h *senderHeap) Push(x any)        { s := x.(*vsender); s.hidx = len(*h); *h = append(*h, s) }
func (h *senderHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.hidx = -1
	*h = old[:n-1]
	return s
}
func (h senderHeap) peek() *vsender { return h[0] }

// opKind is a scheduler command.
type opKind int

const (
	opKill opKind = iota
	opRestart
	opRebind
)

type fleetCmd struct {
	op    opKind
	idx   int
	reply chan clock.Time
}

// Fleet runs Count logical heartbeat senders over a pooled socket set
// from a single timer-heap scheduler goroutine: 50k senders at 1 s
// intervals is 50k sends/s through one goroutine — a marshal and a
// sendto each — with no per-sender goroutine or timer. Faults (Kill,
// Restart, Rebind) are applied between beats by the same goroutine, so
// the returned instants are exact ground truth: no heartbeat for a
// killed sender is emitted after Kill returns.
type Fleet struct {
	opts  FleetOptions
	clk   clock.Clock
	socks []transport.Endpoint // chaos-wrapped when opts.Chaos != nil
	raw   []*poolSock
	all   []*vsender
	rng   *rand.Rand

	cmds  chan fleetCmd
	stopc chan struct{}
	done  chan struct{}
	once  sync.Once

	sent  atomic.Uint64
	errs  atomic.Uint64
	alive atomic.Int64

	buf []byte // scheduler-owned marshal buffer
}

// NewFleet opens the socket pool and builds the sender set; call Start
// to begin heartbeating.
func NewFleet(o FleetOptions) (*Fleet, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	addrs := make(map[string]*net.UDPAddr, len(o.Targets))
	for _, t := range o.Targets {
		a, err := net.ResolveUDPAddr("udp", t)
		if err != nil {
			return nil, fmt.Errorf("load: target %q: %w", t, err)
		}
		addrs[t] = a
	}
	f := &Fleet{
		opts:  o,
		clk:   o.Clock,
		rng:   rand.New(rand.NewSource(o.Seed)),
		cmds:  make(chan fleetCmd, 256),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
		buf:   make([]byte, 0, 64),
	}
	for i := 0; i < o.Sockets; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			f.closeSocks()
			return nil, fmt.Errorf("load: socket %d/%d: %w", i, o.Sockets, err)
		}
		ps := &poolSock{conn: conn, addr: conn.LocalAddr().String(), addrs: addrs}
		f.raw = append(f.raw, ps)
		if o.Chaos != nil {
			f.socks = append(f.socks, chaos.Wrap(ps, o.Chaos))
		} else {
			f.socks = append(f.socks, ps)
		}
	}
	f.all = make([]*vsender, o.Count)
	for i := range f.all {
		f.all[i] = &vsender{
			name:  fmt.Sprintf("%s/s-%05d", o.Prefix, i),
			inc:   o.Incarnation,
			sock:  i % o.Sockets,
			alive: true,
			hidx:  -1,
		}
	}
	f.alive.Store(int64(o.Count))
	return f, nil
}

func (f *Fleet) closeSocks() {
	for _, s := range f.raw {
		_ = s.conn.Close()
	}
}

// Name returns sender i's stream name.
func (f *Fleet) Name(i int) string { return f.all[i].name }

// Count returns the fleet size.
func (f *Fleet) Count() int { return len(f.all) }

// Sent returns heartbeats handed to the sockets (per target — a
// dual-send counts twice).
func (f *Fleet) Sent() uint64 { return f.sent.Load() }

// SendErrors returns socket send failures.
func (f *Fleet) SendErrors() uint64 { return f.errs.Load() }

// Alive returns how many senders are currently heartbeating.
func (f *Fleet) Alive() int { return int(f.alive.Load()) }

// Start launches the scheduler; sender i's first beat lands at its
// pacer StartOffset into the ramp window.
func (f *Fleet) Start() {
	go f.run()
}

// Stop halts the scheduler and closes the socket pool.
func (f *Fleet) Stop() {
	f.once.Do(func() { close(f.stopc) })
	<-f.done
	if f.opts.Chaos != nil {
		for _, s := range f.socks {
			_ = s.Close() // closes the wrapped poolSock too
		}
	} else {
		f.closeSocks()
	}
}

// Kill stops sender i's heartbeats abruptly (no farewell) and returns
// the exact instant after which nothing more was emitted.
func (f *Fleet) Kill(i int) clock.Time { return f.do(opKill, i) }

// Restart revives a killed sender: incarnation bumped, sequence reset,
// first heartbeat emitted immediately. Returns the restart instant.
func (f *Fleet) Restart(i int) clock.Time { return f.do(opRestart, i) }

// Rebind simulates a NAT rebind: sender i moves to a different pool
// socket (new source address) and bumps its incarnation, keeping its
// stream name and cadence — the mobile preset's key path. Returns the
// rebind instant.
func (f *Fleet) Rebind(i int) clock.Time { return f.do(opRebind, i) }

func (f *Fleet) do(op opKind, idx int) clock.Time {
	if idx < 0 || idx >= len(f.all) {
		return 0
	}
	reply := make(chan clock.Time, 1)
	select {
	case f.cmds <- fleetCmd{op: op, idx: idx, reply: reply}:
		select {
		case t := <-reply:
			return t
		case <-f.done:
			return 0
		}
	case <-f.done:
		return 0
	}
}

// run is the scheduler: a binary heap of senders keyed by next-beat
// instant, popped in due order, re-pushed one jittered interval later.
func (f *Fleet) run() {
	defer close(f.done)
	h := make(senderHeap, 0, len(f.all))
	start := f.clk.Now()
	for i, s := range f.all {
		s.next = start.Add(clock.Duration(f.opts.Pacer.StartOffset(i, len(f.all))))
		heap.Push(&h, s)
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	const idleWait = 250 * time.Millisecond
	for {
		now := f.clk.Now()
		for len(h) > 0 && h.peek().next <= now {
			s := heap.Pop(&h).(*vsender)
			if !s.alive {
				continue // killed while queued: drop from the schedule
			}
			f.emit(s, now)
			s.seq++
			// Keep cadence relative to the planned beat, not the (possibly
			// late) emit, so load does not drift under scheduling delay —
			// unless we fell more than an interval behind.
			s.next = s.next.Add(clock.Duration(f.opts.Pacer.Next(f.rng)))
			if s.next <= now {
				s.next = now.Add(clock.Duration(f.opts.Pacer.Next(f.rng)))
			}
			heap.Push(&h, s)
		}
		wait := idleWait
		if len(h) > 0 {
			if d := time.Duration(h.peek().next.Sub(now)); d < wait {
				wait = d
			}
		}
		if wait < 0 {
			wait = 0
		}
		timer.Reset(wait)
		select {
		case <-f.stopc:
			return
		case cmd := <-f.cmds:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			f.apply(&h, cmd)
			// Drain any further queued commands before sleeping again.
			for {
				select {
				case more := <-f.cmds:
					f.apply(&h, more)
					continue
				default:
				}
				break
			}
		case <-timer.C:
		}
	}
}

func (f *Fleet) apply(h *senderHeap, cmd fleetCmd) {
	s := f.all[cmd.idx]
	now := f.clk.Now()
	switch cmd.op {
	case opKill:
		if s.alive {
			s.alive = false
			f.alive.Add(-1)
			// Left in the heap; dropped when popped.
		}
	case opRestart:
		if !s.alive {
			s.alive = true
			f.alive.Add(1)
			s.inc++
			s.seq = 0
			s.next = now
			if s.hidx >= 0 {
				heap.Fix(h, s.hidx)
			} else {
				heap.Push(h, s)
			}
		}
	case opRebind:
		if len(f.socks) > 1 {
			s.sock = (s.sock + 1 + f.rng.Intn(len(f.socks)-1)) % len(f.socks)
		}
		// Incarnation churn: the rebinding client cannot carry its
		// sequence progression across the new path, so it bumps its
		// incarnation and restarts numbering — the receiver's filter and
		// the registry supersede on the higher incarnation without a
		// transition as long as heartbeats keep flowing.
		s.inc++
		s.seq = 0
	}
	cmd.reply <- now
}

func (f *Fleet) emit(s *vsender, now clock.Time) {
	msg := heartbeat.Message{
		Kind: heartbeat.KindHeartbeat,
		Seq:  s.seq,
		Time: now,
		Inc:  s.inc,
		Name: s.name,
	}
	f.buf = msg.AppendTo(f.buf[:0])
	ep := f.socks[s.sock]
	for _, t := range f.opts.Targets {
		if err := ep.Send(t, f.buf); err != nil {
			f.errs.Add(1)
		} else {
			f.sent.Add(1)
		}
	}
}
