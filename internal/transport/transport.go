// Package transport provides the datagram endpoints the live heartbeat
// stack runs on: a real UDP endpoint (stdlib net) matching the paper's
// "inter-process communication model is based on message exchanges over
// the UDP communication protocol" (§II-B), and an in-memory hub with the
// same unreliable-channel semantics for socket-free tests. Deterministic
// simulation uses internal/netsim instead.
//
// The UDP receive path is built for million-stream ingest: datagrams
// are read in batches (recvmmsg on Linux, one syscall for up to a whole
// batch), land in pooled buffers (BufPool) instead of a fresh
// allocation each, and are routed by sender hash onto per-shard ingest
// queues so several consumer goroutines can drain in parallel. The
// consumer returns each buffer with Inbound.Release once the payload is
// decoded, which is what keeps the steady-state path at zero
// allocations per datagram.
package transport

import (
	"container/list"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Inbound is a received datagram. When the payload rides in a pooled
// receive buffer, the consumer that finishes decoding it must call
// Release; an Inbound from an unpooled source releases as a no-op.
type Inbound struct {
	From    string
	Payload []byte

	// pool, when non-nil, owns Payload's backing buffer.
	pool *BufPool
}

// Release returns the payload's pooled buffer to its pool. Call it
// exactly once, after the payload has been fully decoded: the buffer is
// recycled into the receive path immediately, so retaining Payload (or
// any sub-slice) past Release is a use-after-free-style bug. Safe on a
// Inbound that carries no pooled buffer, and idempotent per copy.
func (in *Inbound) Release() {
	if in.pool == nil {
		return
	}
	p := in.pool
	in.pool = nil
	p.Put(in.Payload)
}

// Endpoint is an unreliable datagram endpoint: sends may be silently
// lost, delayed, reordered, duplicated, or truncated in flight — UDP
// guarantees none of the above, and the chaos layer (internal/chaos)
// injects all of them on purpose. Consumers must tolerate duplicates and
// undecodable payloads; the heartbeat codec rejects damage and the
// registry's incarnation/sequence filter absorbs replays.
type Endpoint interface {
	// Send transmits to the named address. A nil error does not imply
	// delivery.
	Send(to string, payload []byte) error
	// Recv returns the delivery channel. It is closed by Close.
	Recv() <-chan Inbound
	// Addr returns this endpoint's address.
	Addr() string
	// Close releases resources and closes the Recv channel.
	Close() error
}

// QueuedEndpoint is the optional multi-queue surface of an endpoint
// whose receive path shards inbound datagrams by sender: consumers that
// want parallel ingest drain every queue (one goroutine each) instead
// of the single Recv channel. Recv() is always queue 0.
type QueuedEndpoint interface {
	Endpoint
	// RecvQueues returns the number of ingest queues (≥ 1).
	RecvQueues() int
	// RecvQueue returns queue i (0 ≤ i < RecvQueues). All queues are
	// closed by Close. Datagrams from one sender always land on the
	// same queue, so per-sender ordering is preserved per queue.
	RecvQueue(i int) <-chan Inbound
}

// ErrClosed reports use of a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// maxDatagram bounds receive buffers; heartbeat messages are tiny, but
// leave room for piggybacked payloads.
const maxDatagram = 64 * 1024

// DefaultPeerCache bounds the UDP resolution cache. Restart and
// partition drills churn peer addresses; without a cap the cache grows
// monotonically for the life of the socket.
const DefaultPeerCache = 1024

// defaultFromCache bounds the sender-address string cache the receive
// loop keeps (netip.AddrPort → "ip:port"). On overflow the cache is
// reset wholesale — an amortized O(1) bound that costs one string
// re-allocation per sender after a reset.
const defaultFromCache = 1 << 16

// UDPOptions tunes a UDP endpoint's receive path. The zero value takes
// the documented defaults, which reproduce the classic single-queue
// Recv() interface on top of the batched machinery.
type UDPOptions struct {
	// Queues is the number of per-shard ingest queues (rounded up to a
	// power of two, default 1). Datagrams are routed by a keyed hash of
	// the sender address, so one sender's traffic stays ordered within
	// its queue. Consumers that only drain Recv() must keep Queues at 1;
	// heartbeat.Receiver drains every queue.
	Queues int
	// QueueLen is each queue's channel capacity (default 4096). A full
	// queue drops, like a full socket buffer — but counted.
	QueueLen int
	// Batch is the maximum datagrams per batched read (default 32).
	// On Linux the batch is filled by one recvmmsg syscall; elsewhere —
	// and always when Batch is 1 — the portable per-datagram loop runs.
	Batch int
	// Pool supplies receive buffers; one is created when nil (PoolBuffers
	// × BufSize). Sharing a pool across endpoints shares its bound.
	Pool *BufPool
	// PoolBuffers caps the pool's idle-buffer count (default 512).
	PoolBuffers int
	// BufSize is the per-buffer (= max datagram) size, default 64 KiB.
	// Datagrams longer than this are truncated by the kernel.
	BufSize int
	// FromCacheCap bounds the sender-address string cache (default 64k
	// entries; the cache resets wholesale when it overflows).
	FromCacheCap int
	// ReadBuffer requests a kernel receive buffer (SO_RCVBUF) of this
	// many bytes when > 0. The kernel caps the request at
	// net.core.rmem_max; at tens of thousands of heartbeats per second
	// the ~208 KiB default holds only a few milliseconds of traffic, so
	// any scheduling stall sheds datagrams before the read loop ever
	// sees them.
	ReadBuffer int
}

func (o *UDPOptions) normalize() {
	if o.Queues <= 0 {
		o.Queues = 1
	}
	n := 1
	for n < o.Queues {
		n <<= 1
	}
	o.Queues = n
	if o.QueueLen <= 0 {
		o.QueueLen = 4096
	}
	if o.Batch <= 0 {
		o.Batch = 32
	}
	if o.PoolBuffers <= 0 {
		o.PoolBuffers = 512
	}
	if o.BufSize <= 0 {
		o.BufSize = maxDatagram
	}
	if o.Pool == nil {
		o.Pool = NewBufPool(o.PoolBuffers, o.BufSize)
	}
	if o.FromCacheCap <= 0 {
		o.FromCacheCap = defaultFromCache
	}
}

// udpReader is the receive primitive behind the read loop: one call
// delivers one batch (≥ 1 datagrams) into pooled buffers via emit, or
// returns the read error for the loop's retry policy to classify. The
// loop owns error handling; readers just read.
type udpReader interface {
	read(emit func(from netip.AddrPort, payload []byte)) error
}

// singleReader is the portable per-datagram reader: one blocking
// ReadFromUDPAddrPort per call into a pooled buffer. Still allocation-
// free in steady state (netip addresses are values; the buffer is
// pooled) — the Linux batched reader only amortizes the syscall.
type singleReader struct {
	conn *net.UDPConn
	pool *BufPool
}

func (r *singleReader) read(emit func(netip.AddrPort, []byte)) error {
	buf := r.pool.Get()
	n, ap, err := r.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		r.pool.Put(buf)
		return err
	}
	emit(netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), buf[:n])
	return nil
}

// UDPCounters is a UDP endpoint's receive-path counter snapshot.
type UDPCounters struct {
	Received    uint64       `json:"received"`     // datagrams delivered to a queue
	Dropped     uint64       `json:"dropped"`      // datagrams dropped at a full queue
	RxBytes     uint64       `json:"rx_bytes"`     // payload bytes received
	ReadRetries uint64       `json:"read_retries"` // transient read errors retried
	Batched     bool         `json:"batched"`      // recvmmsg fast path active
	Batch       int          `json:"batch"`        // max datagrams per read
	Queues      int          `json:"queues"`       // ingest queue count
	QueueDepth  int          `json:"queue_depth"`  // datagrams waiting across queues
	Pool        BufPoolStats `json:"pool"`         // receive-buffer pool accounting
}

// UDP is an Endpoint over a real UDP socket.
type UDP struct {
	conn   *net.UDPConn
	opts   UDPOptions
	pool   *BufPool
	reader udpReader

	queues  []chan Inbound
	qmask   uint64
	seed    maphash.Seed // keys queueOf
	batched bool

	closed chan struct{}
	once   sync.Once

	received    atomic.Uint64
	dropped     atomic.Uint64
	rxBytes     atomic.Uint64
	readRetries atomic.Uint64

	// fromCache maps sender addresses to their rendered strings; owned
	// exclusively by the readLoop goroutine, so it needs no lock.
	fromCache map[netip.AddrPort]string

	// The resolution cache is an LRU bounded at peerCap: peers is the
	// index, order the recency list (front = most recent).
	mu      sync.Mutex
	peers   map[string]*list.Element
	order   *list.List
	peerCap int
}

// peerEntry is one resolution-cache slot; the element value in the LRU
// list.
type peerEntry struct {
	key  string
	addr *net.UDPAddr
}

// ListenUDP opens a UDP endpoint on addr (e.g. "127.0.0.1:0") with
// default options: batched reads, one ingest queue, a private buffer
// pool. The endpoint's Addr is the concrete bound address.
func ListenUDP(addr string) (*UDP, error) {
	return ListenUDPOpts(addr, UDPOptions{})
}

// ListenUDPOpts opens a UDP endpoint with explicit receive-path tuning.
func ListenUDPOpts(addr string, opts UDPOptions) (*UDP, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	u := newUDP(opts)
	if u.opts.ReadBuffer > 0 {
		_ = conn.SetReadBuffer(u.opts.ReadBuffer) // best effort; kernel caps at rmem_max
	}
	u.conn = conn
	u.reader, u.batched = newReader(conn, u.pool, u.opts.Batch)
	go u.readLoop()
	return u, nil
}

// newUDP builds the queue/pool scaffolding without a socket; tests
// inject a fake reader and drive readLoop directly.
func newUDP(opts UDPOptions) *UDP {
	opts.normalize()
	u := &UDP{
		opts:      opts,
		pool:      opts.Pool,
		queues:    make([]chan Inbound, opts.Queues),
		qmask:     uint64(opts.Queues - 1),
		seed:      maphash.MakeSeed(),
		closed:    make(chan struct{}),
		fromCache: make(map[netip.AddrPort]string),
		peers:     make(map[string]*list.Element),
		order:     list.New(),
		peerCap:   DefaultPeerCache,
	}
	for i := range u.queues {
		u.queues[i] = make(chan Inbound, opts.QueueLen)
	}
	return u
}

// SetPeerCache rebounds the resolution cache (minimum 1), evicting
// least-recently-sent entries if the new cap is already exceeded.
func (u *UDP) SetPeerCache(n int) {
	if n < 1 {
		n = 1
	}
	u.mu.Lock()
	u.peerCap = n
	for len(u.peers) > u.peerCap {
		u.evictOldestLocked()
	}
	u.mu.Unlock()
}

// PeerCacheLen returns the current resolution-cache occupancy.
func (u *UDP) PeerCacheLen() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.peers)
}

// lookupPeerLocked returns the cached resolution and refreshes recency.
func (u *UDP) lookupPeerLocked(to string) *net.UDPAddr {
	el := u.peers[to]
	if el == nil {
		return nil
	}
	u.order.MoveToFront(el)
	return el.Value.(*peerEntry).addr
}

func (u *UDP) storePeerLocked(to string, ua *net.UDPAddr) {
	if el := u.peers[to]; el != nil { // raced with another Send
		el.Value.(*peerEntry).addr = ua
		u.order.MoveToFront(el)
		return
	}
	u.peers[to] = u.order.PushFront(&peerEntry{key: to, addr: ua})
	for len(u.peers) > u.peerCap {
		u.evictOldestLocked()
	}
}

func (u *UDP) evictOldestLocked() {
	el := u.order.Back()
	if el == nil {
		return
	}
	u.order.Remove(el)
	delete(u.peers, el.Value.(*peerEntry).key)
}

// fromString renders (and caches) a sender address. Owned by readLoop.
func (u *UDP) fromString(ap netip.AddrPort) string {
	if s, ok := u.fromCache[ap]; ok {
		return s
	}
	if len(u.fromCache) >= u.opts.FromCacheCap {
		clear(u.fromCache)
	}
	s := ap.String()
	u.fromCache[ap] = s
	return s
}

// emit delivers one received datagram onto its sender's shard queue,
// dropping (counted, buffer reclaimed) when the queue is full — the
// userspace analogue of a full socket buffer, now observable.
func (u *UDP) emit(ap netip.AddrPort, payload []byte) {
	from := u.fromString(ap)
	in := Inbound{From: from, Payload: payload, pool: u.pool}
	q := u.queues[u.queueOf(from)]
	select {
	case q <- in:
		u.received.Add(1)
		u.rxBytes.Add(uint64(len(payload)))
	default:
		u.dropped.Add(1)
		u.pool.Put(payload)
	}
}

// queueOf routes a sender address to its ingest queue index, so one
// sender's traffic stays ordered within one queue.
func (u *UDP) queueOf(from string) int {
	if u.qmask == 0 {
		return 0
	}
	return int(maphash.String(u.seed, from) & u.qmask)
}

// readLoop drives the reader until the endpoint closes. Read errors are
// classified, not fatal: timeouts continue immediately, and everything
// else short of endpoint closure — ENOBUFS, ECONNREFUSED-class ICMP
// feedback, EINTR, transient kernel refusals — is retried under a
// capped exponential backoff. Before this policy existed the loop
// returned on the first non-timeout error, permanently closing Recv()
// and silently killing the monitor's socket.
func (u *UDP) readLoop() {
	defer func() {
		for _, q := range u.queues {
			close(q)
		}
	}()
	const (
		minBackoff = time.Millisecond
		maxBackoff = 100 * time.Millisecond
	)
	backoff := minBackoff
	emit := u.emit // bind once; a per-iteration method value would allocate
	for {
		err := u.reader.read(emit)
		if err == nil {
			backoff = minBackoff
			continue
		}
		if u.isClosed() || errors.Is(err, net.ErrClosed) {
			return
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			continue
		}
		u.readRetries.Add(1)
		select {
		case <-u.closed:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

func (u *UDP) isClosed() bool {
	select {
	case <-u.closed:
		return true
	default:
		return false
	}
}

// Send implements Endpoint.
func (u *UDP) Send(to string, payload []byte) error {
	select {
	case <-u.closed:
		return ErrClosed
	default:
	}
	u.mu.Lock()
	ua := u.lookupPeerLocked(to)
	u.mu.Unlock()
	if ua == nil {
		resolved, err := net.ResolveUDPAddr("udp", to)
		if err != nil {
			return fmt.Errorf("transport: resolve %q: %w", to, err)
		}
		u.mu.Lock()
		u.storePeerLocked(to, resolved)
		u.mu.Unlock()
		ua = resolved
	}
	_, err := u.conn.WriteToUDP(payload, ua)
	return err
}

// Recv implements Endpoint; it is ingest queue 0.
func (u *UDP) Recv() <-chan Inbound { return u.queues[0] }

// RecvQueues implements QueuedEndpoint.
func (u *UDP) RecvQueues() int { return len(u.queues) }

// RecvQueue implements QueuedEndpoint.
func (u *UDP) RecvQueue(i int) <-chan Inbound { return u.queues[i] }

// Batched reports whether the recvmmsg fast path is active (Linux with
// Batch > 1); elsewhere the portable per-datagram reader runs.
func (u *UDP) Batched() bool { return u.batched }

// Pool returns the receive-buffer pool.
func (u *UDP) Pool() *BufPool { return u.pool }

// Addr implements Endpoint.
func (u *UDP) Addr() string { return u.conn.LocalAddr().String() }

// Close implements Endpoint.
func (u *UDP) Close() error {
	var err error
	u.once.Do(func() {
		close(u.closed)
		if u.conn != nil {
			err = u.conn.Close()
		}
	})
	return err
}

// Counters returns the endpoint's receive-path counter snapshot.
func (u *UDP) Counters() UDPCounters {
	depth := 0
	for _, q := range u.queues {
		depth += len(q)
	}
	return UDPCounters{
		Received:    u.received.Load(),
		Dropped:     u.dropped.Load(),
		RxBytes:     u.rxBytes.Load(),
		ReadRetries: u.readRetries.Load(),
		Batched:     u.batched,
		Batch:       u.opts.Batch,
		Queues:      len(u.queues),
		QueueDepth:  depth,
		Pool:        u.pool.Stats(),
	}
}

// Dropped returns how many datagrams were dropped at full ingest
// queues since the endpoint opened.
func (u *UDP) Dropped() uint64 { return u.dropped.Load() }

// InstrumentMetrics registers the endpoint's receive-path instruments
// in set. Counters are the same atomics the read loop already bumps,
// sampled at scrape time — nothing is added to the hot path.
func (u *UDP) InstrumentMetrics(set *metrics.Set) {
	set.CounterFunc("sfd_transport_received_total",
		"Datagrams delivered to an ingest queue.",
		u.received.Load)
	set.CounterFunc("sfd_transport_dropped_total",
		"Datagrams dropped because the ingest queue was full (consumer not draining).",
		u.dropped.Load)
	set.CounterFunc("sfd_transport_rx_bytes_total",
		"Payload bytes received.",
		u.rxBytes.Load)
	set.CounterFunc("sfd_transport_read_retries_total",
		"Transient socket read errors retried with backoff instead of killing the read loop.",
		u.readRetries.Load)
	set.CounterFunc("sfd_transport_pool_misses_total",
		"Receive-buffer pool misses (datagrams that fell back to a fresh allocation).",
		func() uint64 { return u.pool.Stats().Misses })
	set.GaugeFunc("sfd_transport_queue_depth",
		"Datagrams waiting across all ingest queues.",
		func() float64 {
			d := 0
			for _, q := range u.queues {
				d += len(q)
			}
			return float64(d)
		})
}

// Pump drains an endpoint into a handler until the endpoint closes —
// the receive-loop glue for consumers that are not heartbeat Receivers
// (e.g. a gossip daemon sharing or owning a socket). It blocks; run it
// on its own goroutine:
//
//	go transport.Pump(ep, func(in transport.Inbound) { g.HandleDatagram(in.Payload) })
//
// Pump releases each datagram's pooled buffer after the handler
// returns, so the handler must not retain the payload.
func Pump(ep Endpoint, h func(Inbound)) {
	for in := range ep.Recv() {
		h(in)
		in.Release()
	}
}

// Hub is an in-memory datagram switchboard for tests: real-time (not
// simulated), optionally lossy and delayed, no sockets.
type Hub struct {
	mu        sync.Mutex
	endpoints map[string]*MemEndpoint
	lossRate  float64
	delay     time.Duration
	// rng drives loss decisions. *rand.Rand is not safe for concurrent
	// use; every access MUST hold mu (Send draws under mu — see the
	// concurrency stress test). Do not read it lock-free for "cheap"
	// randomness.
	rng *rand.Rand
}

// NewHub returns an empty hub. lossRate drops datagrams uniformly at
// random; delay postpones each delivery by a fixed amount.
func NewHub(lossRate float64, delay time.Duration, seed int64) *Hub {
	return &Hub{
		endpoints: make(map[string]*MemEndpoint),
		lossRate:  lossRate,
		delay:     delay,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Endpoint registers and returns an endpoint with the given address.
func (h *Hub) Endpoint(addr string) *MemEndpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.endpoints[addr]; dup {
		panic(fmt.Sprintf("transport: duplicate hub endpoint %q", addr))
	}
	ep := &MemEndpoint{hub: h, addr: addr, recv: make(chan Inbound, 4096), closed: make(chan struct{})}
	h.endpoints[addr] = ep
	return ep
}

// MemEndpoint is an Endpoint attached to a Hub.
type MemEndpoint struct {
	hub    *Hub
	addr   string
	recv   chan Inbound
	closed chan struct{}
	once   sync.Once

	// closeMu serializes deliveries against Close: recv may only be
	// closed once no sender can still be inside a send (closing a
	// channel with concurrent senders is a race).
	closeMu  sync.RWMutex
	isClosed bool
}

// Send implements Endpoint.
func (m *MemEndpoint) Send(to string, payload []byte) error {
	select {
	case <-m.closed:
		return ErrClosed
	default:
	}
	h := m.hub
	h.mu.Lock()
	dst := h.endpoints[to]
	drop := h.lossRate > 0 && h.rng.Float64() < h.lossRate
	delay := h.delay
	h.mu.Unlock()
	if dst == nil {
		return fmt.Errorf("transport: unknown hub endpoint %q", to)
	}
	if drop {
		return nil
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	deliver := func() {
		dst.closeMu.RLock()
		defer dst.closeMu.RUnlock()
		if dst.isClosed {
			return
		}
		select {
		case dst.recv <- Inbound{From: m.addr, Payload: cp}:
		default:
		}
	}
	if delay > 0 {
		time.AfterFunc(delay, deliver)
	} else {
		deliver()
	}
	return nil
}

// Recv implements Endpoint.
func (m *MemEndpoint) Recv() <-chan Inbound { return m.recv }

// Addr implements Endpoint.
func (m *MemEndpoint) Addr() string { return m.addr }

// Close implements Endpoint.
func (m *MemEndpoint) Close() error {
	m.once.Do(func() {
		close(m.closed)
		m.hub.mu.Lock()
		delete(m.hub.endpoints, m.addr)
		m.hub.mu.Unlock()
		m.closeMu.Lock()
		m.isClosed = true
		close(m.recv)
		m.closeMu.Unlock()
	})
	return nil
}
