package transport

import (
	"errors"
	"hash/fnv"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// --- drop accounting -------------------------------------------------

// TestUDPDropCounterMoves is the regression test for the silent-drop
// bug: with nobody draining and a tiny ingest queue, overflow datagrams
// used to vanish without a trace. Now they must move the drop counter
// (and only the queue's capacity may be counted as received).
func TestUDPDropCounterMoves(t *testing.T) {
	ep, err := ListenUDPOpts("127.0.0.1:0", UDPOptions{QueueLen: 4, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	sender, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	dst, err := netip.ParseAddrPort(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Blast until the queue has demonstrably overflowed. Loopback can
	// shed datagrams below us, so send in rounds rather than assuming
	// every write arrives.
	payload := []byte("overflow-me")
	deadline := time.Now().Add(5 * time.Second)
	for ep.Dropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drop counter never moved; counters %+v", ep.Counters())
		}
		for i := 0; i < 64; i++ {
			if _, err := sender.WriteToUDPAddrPort(payload, dst); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	c := ep.Counters()
	if c.Dropped == 0 {
		t.Fatal("dropped counter is zero after overflow")
	}
	if c.Received > uint64(4) {
		t.Fatalf("received %d datagrams into a 4-slot queue nobody drained", c.Received)
	}
	// The queued datagrams must still be deliverable after the overflow.
	select {
	case in := <-ep.Recv():
		if string(in.Payload) != "overflow-me" {
			t.Fatalf("corrupt payload %q", in.Payload)
		}
		in.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("queued datagram not delivered after overflow")
	}
}

// --- read-loop error policy ------------------------------------------

// scriptReader replays a scripted sequence of read outcomes, then
// blocks until released — a stand-in for the socket that lets the test
// drive readLoop through error paths no real socket produces on demand.
type scriptReader struct {
	mu      sync.Mutex
	script  []scriptStep
	release chan struct{}
}

type scriptStep struct {
	err  error
	from netip.AddrPort
	data []byte
}

func (r *scriptReader) read(emit func(netip.AddrPort, []byte)) error {
	r.mu.Lock()
	if len(r.script) == 0 {
		r.mu.Unlock()
		<-r.release
		return net.ErrClosed
	}
	step := r.script[0]
	r.script = r.script[1:]
	r.mu.Unlock()
	if step.err != nil {
		return step.err
	}
	emit(step.from, step.data)
	return nil
}

// transientErr is a non-timeout net.Error — the class that used to kill
// the read loop permanently.
type transientErr struct{}

func (transientErr) Error() string   { return "transient socket error" }
func (transientErr) Timeout() bool   { return false }
func (transientErr) Temporary() bool { return true }

// timeoutErr is a timeout net.Error — retried without backoff.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestReadLoopSurvivesTransientErrors is the regression test for the
// fatal-read-error bug: the loop used to return on the first non-timeout
// error, closing Recv and silently killing the endpoint. It must instead
// retry with backoff and deliver the datagrams that follow.
func TestReadLoopSurvivesTransientErrors(t *testing.T) {
	from := netip.MustParseAddrPort("10.0.0.9:4100")
	r := &scriptReader{
		release: make(chan struct{}),
		script: []scriptStep{
			{err: transientErr{}},
			{err: timeoutErr{}},
			{err: transientErr{}},
			{from: from, data: []byte("after-the-storm")},
		},
	}
	u := newUDP(UDPOptions{Batch: 1})
	u.reader = r
	done := make(chan struct{})
	go func() { u.readLoop(); close(done) }()

	select {
	case in := <-u.Recv():
		if in.From != "10.0.0.9:4100" || string(in.Payload) != "after-the-storm" {
			t.Fatalf("got %q from %q", in.Payload, in.From)
		}
		in.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("datagram after transient errors never delivered: read loop died")
	}
	if got := u.Counters().ReadRetries; got != 2 {
		t.Fatalf("ReadRetries = %d, want 2 (timeouts are not retries)", got)
	}

	// Closing the endpoint must terminate the loop and close the queues.
	close(u.closed)
	close(r.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop did not exit on close")
	}
	if _, ok := <-u.Recv(); ok {
		t.Fatal("Recv channel not closed after loop exit")
	}
}

// TestReadLoopExitsOnNetErrClosed verifies the other half of the error
// policy: a closed socket ends the loop even if the endpoint's own
// closed channel hasn't been signalled yet.
func TestReadLoopExitsOnNetErrClosed(t *testing.T) {
	r := &scriptReader{
		release: make(chan struct{}),
		script:  []scriptStep{{err: net.ErrClosed}},
	}
	u := newUDP(UDPOptions{})
	u.reader = r
	done := make(chan struct{})
	go func() { u.readLoop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop did not exit on net.ErrClosed")
	}
	if u.Counters().ReadRetries != 0 {
		t.Fatal("close must not count as a retry")
	}
}

// TestReadLoopWrappedErrClosed: the loop must classify wrapped
// net.ErrClosed (as RawConn read errors arrive) via errors.Is.
func TestReadLoopWrappedErrClosed(t *testing.T) {
	wrapped := &net.OpError{Op: "read", Net: "udp", Err: net.ErrClosed}
	if !errors.Is(wrapped, net.ErrClosed) {
		t.Fatal("test premise broken")
	}
	r := &scriptReader{release: make(chan struct{}), script: []scriptStep{{err: wrapped}}}
	u := newUDP(UDPOptions{})
	u.reader = r
	done := make(chan struct{})
	go func() { u.readLoop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop did not exit on wrapped net.ErrClosed")
	}
}

// --- buffer pool ------------------------------------------------------

// TestBufPoolExhaustionAndReuse is the pool's property test: misses are
// fresh allocations, returns recirculate, overflow and foreign buffers
// are discarded, and a recycled Get hands back the same backing array.
func TestBufPoolExhaustionAndReuse(t *testing.T) {
	p := NewBufPool(2, 1024)

	// Exhaustion: every Get from an empty pool is a miss, never nil.
	a, b, c := p.Get(), p.Get(), p.Get()
	for i, buf := range [][]byte{a, b, c} {
		if len(buf) != 1024 {
			t.Fatalf("buf %d: len %d, want 1024", i, len(buf))
		}
	}
	if s := p.Stats(); s.Gets != 3 || s.Misses != 3 {
		t.Fatalf("after 3 dry Gets: %+v", s)
	}

	// Reuse: returns land in the pool, and Get hands the same arrays back.
	p.Put(a)
	p.Put(b)
	if s := p.Stats(); s.Idle != 2 || s.Puts != 2 {
		t.Fatalf("after 2 Puts: %+v", s)
	}
	p.Put(c) // pool full: discarded
	if s := p.Stats(); s.Discards != 1 || s.Idle != 2 {
		t.Fatalf("overflow Put not discarded: %+v", s)
	}
	seen := map[*byte]bool{&a[0]: true, &b[0]: true}
	for i := 0; i < 2; i++ {
		g := p.Get()
		if !seen[&g[0]] {
			t.Fatalf("Get %d returned a buffer not previously Put", i)
		}
		delete(seen, &g[0])
	}
	if s := p.Stats(); s.Misses != 3 {
		t.Fatalf("pooled Gets counted as misses: %+v", s)
	}

	// A payload-trimmed buffer recycles at full length.
	p.Put(a[:7])
	g := p.Get()
	if len(g) != 1024 || &g[0] != &a[0] {
		t.Fatal("trimmed buffer not restored to full length on reuse")
	}

	// Foreign buffers (wrong backing size) never enter the pool.
	p.Put(make([]byte, 512))
	p.Put(make([]byte, 4096))
	if s := p.Stats(); s.Idle != 0 || s.Discards != 3 {
		t.Fatalf("foreign buffers not discarded: %+v", s)
	}
}

// TestBufPoolDefaults covers the constructor's defaulting contract.
func TestBufPoolDefaults(t *testing.T) {
	p := NewBufPool(0, 0)
	if s := p.Stats(); s.Cap != 256 || s.BufSize != maxDatagram {
		t.Fatalf("defaults: %+v", s)
	}
	if got := len(p.Get()); got != maxDatagram {
		t.Fatalf("default buffer len %d", got)
	}
}

// --- zero-allocation steady state ------------------------------------

// TestUDPSteadyStateZeroAllocs sends one datagram per iteration through
// a real socket and requires the receive path — read, pool, From-string
// cache, queue, Release — to allocate nothing once warm.
func TestUDPSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	ep, err := ListenUDPOpts("127.0.0.1:0", UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	sender, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	dst, err := netip.ParseAddrPort(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}

	payload := []byte("steady-state-heartbeat")
	roundTrip := func() {
		if _, err := sender.WriteToUDPAddrPort(payload, dst); err != nil {
			t.Fatal(err)
		}
		in := <-ep.Recv()
		in.Release()
	}
	// Warm the pool, the From cache, and the sender's route.
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(200, roundTrip); avg > 0 {
		t.Fatalf("receive path allocates %.2f allocs/datagram in steady state, want 0 (pool %+v)",
			avg, ep.Pool().Stats())
	}
	if misses := ep.Pool().Stats().Misses; misses > uint64(ep.Pool().Stats().Cap) {
		t.Fatalf("pool keeps missing in steady state: %+v", ep.Pool().Stats())
	}
}

// --- sharded queues ---------------------------------------------------

// TestUDPQueueShardingBySender verifies that multi-queue routing is
// per-sender sticky and covers every configured queue given enough
// distinct senders.
func TestUDPQueueShardingBySender(t *testing.T) {
	u := newUDP(UDPOptions{Queues: 4, Batch: 1})
	if len(u.queues) != 4 {
		t.Fatalf("queues = %d", len(u.queues))
	}
	hit := make(map[int]bool)
	for s := 0; s < 64; s++ {
		ap := netip.AddrPortFrom(netip.MustParseAddr("10.1.2.3"), uint16(20000+s))
		want := u.queueOf(ap.String())
		for rep := 0; rep < 3; rep++ {
			u.emit(ap, []byte("x"))
		}
		for i := range u.queues {
			for len(u.queues[i]) > 0 {
				in := <-u.queues[i]
				if i != want {
					t.Fatalf("sender %s landed on queue %d, want %d", in.From, i, want)
				}
				hit[i] = true
			}
		}
	}
	if len(hit) != 4 {
		t.Fatalf("only %d of 4 queues used across 64 senders", len(hit))
	}
}

// TestUDPQueueFlood: 1 024 source ports crafted so that an unkeyed
// FNV-1a router sends every sender to queue 0 must still spread over
// four queues. The fair share is 256; no queue may take more than 512.
func TestUDPQueueFlood(t *testing.T) {
	u := newUDP(UDPOptions{Queues: 4, Batch: 1})
	per := make([]int, len(u.queues))
	for port, n := 1024, 0; n < 1024; port++ {
		from := netip.AddrPortFrom(netip.MustParseAddr("10.1.2.3"), uint16(port)).String()
		h := fnv.New32a()
		h.Write([]byte(from))
		if h.Sum32()&3 != 0 {
			continue
		}
		per[u.queueOf(from)]++
		n++
	}
	for q, n := range per {
		if n > 512 {
			t.Errorf("queue %d takes %d of 1024 crafted senders, want at most 512", q, n)
		}
	}
}

// TestUDPOptionsNormalize pins the documented defaults and the
// power-of-two queue rounding.
func TestUDPOptionsNormalize(t *testing.T) {
	o := UDPOptions{Queues: 5}
	o.normalize()
	if o.Queues != 8 || o.QueueLen != 4096 || o.Batch != 32 || o.Pool == nil {
		t.Fatalf("normalized: %+v", o)
	}
	if o.Pool.BufSize() != maxDatagram {
		t.Fatalf("pool buf size %d", o.Pool.BufSize())
	}
}

// --- batched vs per-datagram benchmark --------------------------------

// benchIngest times receiving b.N datagrams through drain. Each round
// fills the kernel socket buffer off the clock, then times draining it
// — so the measurement is receive-path cost per datagram, not sender
// throughput, and holds on single-core CI machines where a blast-sender
// design would just measure scheduler contention. drain consumes at
// least `want` datagrams and returns how many it took (a batched read
// may overshoot); returning 0 signals a read deadline (round shed by
// loopback — refill).
func benchIngest(b *testing.B, conn *net.UDPConn, drain func(want int) int) {
	b.Helper()
	snd, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer snd.Close()
	dst, err := netip.ParseAddrPort(conn.LocalAddr().String())
	if err != nil {
		b.Fatal(err)
	}

	// chunk × (payload + per-skb overhead) stays under the default
	// 208 KiB socket buffer, so an unforced SetReadBuffer can't silently
	// shed half the round.
	const chunk = 256
	payload := make([]byte, 64)
	b.SetBytes(64)
	b.ResetTimer()
	for count := 0; count < b.N; {
		b.StopTimer()
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for i := 0; i < chunk; i++ {
			if _, err := snd.WriteToUDPAddrPort(payload, dst); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		count += drain(chunk)
	}
}

// BenchmarkUDPReadLoop compares the per-datagram receive cost of the
// pre-batching ingest loop against the shipped batched path:
//
//   - perdatagram replicates what the read loop did before this ingest
//     path existed: one ReadFromUDP per datagram, a fresh payload copy,
//     a *net.UDPAddr and its rendered string per datagram.
//   - batched is the shipped path: recvmmsg into pooled buffers with
//     the From-string cache (portable pooled reader off Linux).
//
// CI gates batched ≥ 1.5× perdatagram throughput on Linux — observed
// ~1.8–1.9× on 1-vCPU CI-class VMs (the margin absorbs runner noise;
// multi-core bare metal measures higher, as the syscall fraction the
// batch amortizes is larger there).
func BenchmarkUDPReadLoop(b *testing.B) {
	b.Run("perdatagram", func(b *testing.B) {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		buf := make([]byte, maxDatagram)
		var sink Inbound
		benchIngest(b, conn, func(want int) int {
			got := 0
			for got < want {
				n, from, err := conn.ReadFromUDP(buf)
				if err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						break
					}
					b.Fatal(err)
				}
				payload := make([]byte, n)
				copy(payload, buf[:n])
				sink = Inbound{From: from.String(), Payload: payload}
				got++
			}
			return got
		})
		_ = sink
	})
	b.Run("batched", func(b *testing.B) {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		pool := NewBufPool(256, 2048)
		reader, _ := newReader(conn, pool, 32)
		fromCache := make(map[netip.AddrPort]string)
		var sink Inbound
		got := 0
		emit := func(ap netip.AddrPort, p []byte) {
			from, ok := fromCache[ap]
			if !ok {
				from = ap.String()
				fromCache[ap] = from
			}
			sink = Inbound{From: from, Payload: p, pool: pool}
			sink.Release()
			got++
		}
		benchIngest(b, conn, func(want int) int {
			got = 0
			for got < want {
				if err := reader.read(emit); err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						break
					}
					b.Fatal(err)
				}
			}
			return got
		})
	})
}
