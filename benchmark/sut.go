package main

// sut.go is the adapter between the benchmark and the system under test:
// the only file that imports repro/internal/... Every other file talks to
// the system through the small types below (or over real sockets), so a
// later change that may not edit the benchmark breaks at most this file's
// callees — all of them exported functions the daemons themselves use.
// It deliberately avoids internal/cluster's Monitor/SimCluster and the
// sfd.go facade, both scheduled for deletion.

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/fanout"
	"repro/internal/federate"
	"repro/internal/gossip"
	"repro/internal/heartbeat"
	"repro/internal/persist"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/window"
)

// ---------------------------------------------------------------- clock

// benchClock is the single timebase of a run: the system's real clock
// shifted one hour forward, so set-up can back-date pre-warm arrivals
// without producing negative instants. It is not a clock.Sim, so every
// component takes its real-time (goroutine-driven) path.
type benchClock struct {
	real *clock.Real
}

const clockShift = time.Hour

func newBenchClock() *benchClock { return &benchClock{real: clock.NewReal()} }

func (c *benchClock) Now() clock.Time { return c.real.Now().Add(clockShift) }

func (c *benchClock) After(d clock.Duration) <-chan clock.Time {
	ch := make(chan clock.Time, 1)
	go func() {
		time.Sleep(d)
		ch <- c.Now()
	}()
	return ch
}

func (c *benchClock) Sleep(d clock.Duration) { time.Sleep(d) }

// ns is Now as a plain integer, the form the harness computes in.
func (c *benchClock) ns() int64 { return int64(c.Now()) }

// ------------------------------------------------------------- detector

// Detector shape shared by every live workload: the paper's SFD with a
// window and slot small enough that slots close inside a run.
const (
	detWindow = 100
	detSlot   = 50
)

// detCfg is the per-stream-class part of the detector configuration.
type detCfg struct {
	Interval time.Duration
	Margin   time.Duration
}

func (d detCfg) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.WindowSize = detWindow
	cfg.SlotHeartbeats = detSlot
	cfg.Interval = d.Interval
	cfg.InitialMargin = d.Margin
	// Targets a healthy loopback run satisfies, so the feedback loop runs
	// every slot (Algorithm 1 executes) and finds nothing to change: the
	// margin — and with it the estimator wait — stays where it was set.
	cfg.Targets = core.Targets{MaxTD: d.Interval + 4*d.Margin, MaxMR: 0.05, MinQAP: 0.99}
	return cfg
}

// ------------------------------------------------------------- monitor

// Handles that let the other files hold system values without importing
// the system's packages.
type (
	udpSocket      = *transport.UDP
	registryHandle = *registry.Registry
)

// Ingest sizing follows internal/load/monitor.go: a deep kernel buffer
// (capped by net.core.rmem_max) and a pool covering the whole queue.
const (
	monReadBuffer  = 8 << 20
	monQueueLen    = 4096
	monPoolBuffers = monQueueLen + 128
	monRxBatch     = 32
)

type monitorOpts struct {
	// CfgOf picks a stream's detector class from its name.
	CfgOf func(name string) detCfg
	// StateDir/Checkpoint enable persistence (fleet).
	StateDir   string
	Checkpoint time.Duration
	// Traced wraps the ingest handler with the 1/64 sampling probe.
	Traced bool
}

// ingestProbe holds the sampled per-arrival measurements of a traced run.
// Only the single receiver goroutine counts arrivals; the mutex orders its
// one-in-64 appends against the harness reading them.
type ingestProbe struct {
	n uint64

	mu        sync.Mutex
	observeNs []float64 // sampled Registry.Observe call durations
	waitNs    []float64 // Arrival.Recv − Arrival.Send of the same samples
}

func (p *ingestProbe) samples() (observeNs, waitNs []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.observeNs...), append([]float64(nil), p.waitNs...)
}

const ingestSampleEvery = 64

// monitor is one in-process monitor wired exactly as cmd/sfdmon and
// internal/load wire it: UDP transport → heartbeat.Receiver →
// registry.Registry (core.SFD per stream) → bus → HTTP surface.
type monitor struct {
	clk  *benchClock
	udp  *transport.UDP
	reg  *registry.Registry
	recv *heartbeat.Receiver
	gsp  *gossip.Gossiper
	leaf *federate.Leaf

	srv      *http.Server
	ln       net.Listener
	httpDone chan struct{}

	probe *ingestProbe
}

// bindUDP opens a monitor ingest socket on a loopback ephemeral port.
func bindUDP() (*transport.UDP, error) {
	return transport.ListenUDPOpts("127.0.0.1:0", transport.UDPOptions{
		Queues: 1, Batch: monRxBatch,
		QueueLen: monQueueLen, PoolBuffers: monPoolBuffers,
		ReadBuffer: monReadBuffer,
	})
}

// newRegistry builds (but does not start) a registry; set-up calls it
// several times to time registration and pre-warm.
func newRegistry(clk *benchClock, o monitorOpts) *registry.Registry {
	return registry.New(clk, func(name string) detector.Detector {
		return core.New(o.CfgOf(name).coreConfig())
	}, registry.Options{
		StateDir:           o.StateDir,
		CheckpointInterval: o.Checkpoint,
		MetricsMaxStreams:  -1, // aggregates only: a scrape must not walk the fleet per stream
	})
}

// firstIncarnation is the incarnation every stream starts its life with;
// the generator's first live beat must carry the same, or the registry
// takes it for a restarted process and discards the warmed detector.
const firstIncarnation = 1

// prewarm registers name and feeds its detector n back-dated arrivals
// spaced exactly one interval apart, the last one interval before
// firstDue, so the estimator expects the first live beat on time.
func prewarm(reg *registry.Registry, name string, firstDue int64, n int, interval time.Duration) {
	for j := 1; j <= n; j++ {
		t := clock.Time(firstDue - int64(n-j+1)*int64(interval))
		reg.Observe(heartbeat.Arrival{From: name, Seq: uint64(j), Send: t, Recv: t, Inc: firstIncarnation})
	}
}

// startMonitor wires reg behind udp and starts everything but the
// federation leaf and gossiper, which the fleet workload attaches.
func startMonitor(clk *benchClock, udp *transport.UDP, reg *registry.Registry, o monitorOpts) (*monitor, error) {
	m := &monitor{clk: clk, udp: udp, reg: reg, httpDone: make(chan struct{})}
	handler := heartbeat.Handler(reg.Observe)
	if o.Traced {
		p := &ingestProbe{}
		m.probe = p
		handler = func(a heartbeat.Arrival) {
			p.n++
			if p.n%ingestSampleEvery != 0 {
				reg.Observe(a)
				return
			}
			t0 := time.Now()
			reg.Observe(a)
			d := float64(time.Since(t0))
			p.mu.Lock()
			p.observeNs = append(p.observeNs, d)
			p.waitNs = append(p.waitNs, float64(a.Recv.Sub(a.Send)))
			p.mu.Unlock()
		}
	}
	m.recv = heartbeat.NewReceiver(udp, clk, handler)
	udp.InstrumentMetrics(reg.Metrics())
	m.recv.InstrumentMetrics(reg.Metrics())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("monitor http: %w", err)
	}
	m.ln = ln
	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	m.srv = &http.Server{Handler: mux}
	go func() {
		defer close(m.httpDone)
		_ = m.srv.Serve(ln)
	}()
	return m, nil
}

// attachForeign routes non-heartbeat datagrams the way sfdmon does:
// federation traffic to the leaf, everything else to the gossiper.
func (m *monitor) attachForeign() {
	m.recv.SetForeign(func(in transport.Inbound) {
		switch {
		case m.leaf != nil && federate.IsFederation(in.Payload):
			m.leaf.HandleDatagramFrom(in.From, in.Payload)
		case m.gsp != nil:
			m.gsp.HandleDatagram(in.Payload)
		}
	})
}

// run starts the wheel driver and the receive loop.
func (m *monitor) run() {
	m.reg.Start()
	m.recv.Start()
}

// haltWheel stops the registry's timer-wheel driver — no transition
// fires after it returns — and, with persistence on, writes the final
// full checkpoint. It returns how long that took, in milliseconds.
func (m *monitor) haltWheel() float64 {
	t0 := time.Now()
	m.reg.Stop()
	return msSince(t0)
}

// stopGossip ends the gossiper's rounds so the socket goes quiet.
func (m *monitor) stopGossip() {
	if m.gsp != nil {
		m.gsp.Stop()
	}
}

func (m *monitor) udpAddr() string { return m.udp.Addr() }
func (m *monitor) baseURL() string { return "http://" + m.ln.Addr().String() }

// stop tears down in sfdmon's order: HTTP, gossip, leaf, socket,
// receiver, registry.
func (m *monitor) stop() {
	_ = m.srv.Close()
	<-m.httpDone
	if m.gsp != nil {
		m.gsp.Stop()
	}
	if m.leaf != nil {
		m.leaf.Stop()
	}
	_ = m.udp.Close()
	m.recv.Wait()
	m.reg.Stop()
}

// freshness reads a stream's freshness point τ under its shard lock.
func (m *monitor) freshness(name string) (int64, bool) {
	var fp clock.Time
	ok := m.reg.Inspect(name, func(d detector.Detector) { fp = d.FreshnessPoint() })
	return int64(fp), ok && fp != 0
}

// slotsEvaluated returns, per named stream, how many feedback slots its
// detector has evaluated (history entries exist only for slots
// Algorithm 1 ran on).
func (m *monitor) slotsEvaluated(names []string) []int32 {
	out := make([]int32, len(names))
	for i, n := range names {
		m.reg.Inspect(n, func(d detector.Detector) {
			if s, ok := d.(*core.SFD); ok {
				out[i] = int32(len(s.History()))
			}
		})
	}
	return out
}

// monCounters is the slice of the system's own accounting the harness
// reads; every field is a counter the daemons already export.
type monCounters struct {
	Observed     uint64 // registry: heartbeats accepted by Observe
	RegStale     uint64 // registry: arrivals dropped as stale
	InvalidNames uint64
	Suspects     uint64
	Trusts       uint64
	BusDropped   uint64
	Streams      int
	WatchConns   int

	RecvAccepted uint64 // receiver: passed the stale filter
	RecvStale    uint64 // receiver: dropped as stale
	Foreign      uint64 // receiver: not heartbeat protocol
	Rearms       uint64 // registry: wheel entries scheduled
	DecodeSum    float64
	DecodeCount  uint64

	UDPReceived uint64
	UDPDropped  uint64
	PoolMisses  uint64
	PoolBytes   uint64 // receive buffers the socket's pool has in circulation
	QueueDepth  int
}

func (m *monitor) counters() monCounters {
	rc := m.reg.Counters()
	acc, stale := m.recv.Counters()
	uc := m.udp.Counters()
	prom := scrapeSet(m.reg)
	return monCounters{
		Observed: rc.Heartbeats, RegStale: rc.Stale, InvalidNames: rc.InvalidNames,
		Suspects: rc.Suspects, Trusts: rc.Trusts, BusDropped: rc.BusDropped,
		Streams: rc.Streams, WatchConns: rc.WatchConns,
		RecvAccepted: acc, RecvStale: stale,
		Foreign:     uint64(prom["sfd_receiver_foreign_total"]),
		Rearms:      uint64(prom["sfd_registry_wheel_rearms_total"]),
		DecodeSum:   prom["sfd_receiver_decode_seconds_sum"],
		DecodeCount: uint64(prom["sfd_receiver_decode_seconds_count"]),
		UDPReceived: uc.Received, UDPDropped: uc.Dropped,
		PoolMisses: uc.Pool.Misses, QueueDepth: uc.QueueDepth,
		PoolBytes: (uint64(uc.Pool.Idle) + uc.Pool.Gets - uc.Pool.Puts) * uint64(uc.Pool.BufSize),
	}
}

// observed is the cheap form of counters().Observed the generator reads
// at the timed-phase boundaries.
func (m *monitor) observed() uint64 { return m.reg.Counters().Heartbeats }

func (m *monitor) queueDepth() int { return m.udp.Counters().QueueDepth }

// scrapeSet renders the registry's metric set in-process and returns the
// unlabelled series by name — the same text a /metrics scrape serves.
func scrapeSet(reg *registry.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = reg.Metrics().WritePrometheus(&buf)
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// busEvent is a failure-bus event as the harness sees it.
type busEvent struct {
	Peer    string
	Type    string
	At      int64
	Receipt int64 // stamped by the draining goroutine
}

// busTap is an in-process subscriber drained by its own goroutine.
type busTap struct {
	sub  *registry.Subscription
	done chan struct{}

	mu       sync.Mutex
	count    uint64
	suspects uint64
	lagNs    []float64 // receipt − Event.At, suspects only
	onEvent  func(busEvent)
}

// tapBus subscribes to the monitor's bus (filter "" = firehose) and
// drains it until closeTap. onEvent, when set, runs on the draining
// goroutine.
func (m *monitor) tapBus(filter string, buf int, onEvent func(busEvent)) (*busTap, error) {
	var sub *registry.Subscription
	if filter == "" {
		sub = m.reg.Subscribe(buf)
	} else {
		var err error
		if sub, err = m.reg.SubscribeTopic(filter, buf); err != nil {
			return nil, err
		}
	}
	t := &busTap{sub: sub, done: make(chan struct{}), onEvent: onEvent}
	go func() {
		defer close(t.done)
		for ev := range sub.C() {
			now := m.clk.ns()
			t.mu.Lock()
			t.count++
			if ev.Type == registry.EventSuspect {
				t.suspects++
				t.lagNs = append(t.lagNs, float64(now-int64(ev.At)))
			}
			t.mu.Unlock()
			if t.onEvent != nil {
				t.onEvent(busEvent{Peer: ev.Peer, Type: ev.Type.String(), At: int64(ev.At), Receipt: now})
			}
		}
	}()
	return t, nil
}

// closeTap detaches the tap and returns its tallies and drop count.
func (t *busTap) closeTap() (count, suspects, dropped uint64, lagNs []float64) {
	dropped = t.sub.Dropped()
	t.sub.Close()
	<-t.done
	return t.count, t.suspects, dropped, t.lagNs
}

// watchDropped sums drops charged to live /watch-style topic
// subscriptions with the given filter.
func (m *monitor) watchDropped(filter string) uint64 {
	var n uint64
	for _, s := range m.reg.Bus().SubscriptionStats() {
		if s.Filter == filter {
			n += s.Dropped
		}
	}
	return n
}

// timeRegistryReads times the two bulk read hatches once each.
func (m *monitor) timeRegistryReads() (foreachMs, snapshotMs float64) {
	t0 := time.Now()
	n := 0
	m.reg.ForEachStream(func(registry.StreamView) { n++ })
	foreachMs = msSince(t0)
	t0 = time.Now()
	_ = m.reg.Snapshot(m.clk.Now())
	snapshotMs = msSince(t0)
	return
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// ---------------------------------------------------------- heartbeats

// encodeHeartbeat appends one wire-v3 heartbeat.
func encodeHeartbeat(buf []byte, name string, seq uint64, sendNs int64, inc uint64) []byte {
	return heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: seq, Time: clock.Time(sendNs), Inc: inc, Name: name}.AppendTo(buf)
}

// Offsets of the mutable fields inside an encoded heartbeat; the
// generator patches them in place instead of re-encoding. checkPatch
// proves them against the codec before any run relies on them.
const (
	hbSeqOff  = 4
	hbTimeOff = 12
	hbIncOff  = 20
)

func checkPatch() error {
	pkt := encodeHeartbeat(nil, "dc/zone-0/rack-00/s-00", 1, 2, 3)
	patchHeartbeat(pkt, 0x0102030405060708, 0x1112131415161718, 0x2122232425262728)
	m, name, err := heartbeat.Decode(pkt)
	if err != nil {
		return err
	}
	if m.Seq != 0x0102030405060708 || int64(m.Time) != 0x1112131415161718 || m.Inc != 0x2122232425262728 ||
		string(name) != "dc/zone-0/rack-00/s-00" || m.Kind != heartbeat.KindHeartbeat {
		return fmt.Errorf("heartbeat patch offsets no longer match the wire codec")
	}
	return nil
}

// ---------------------------------------------------------- federation

// countingEndpoint wraps the shared socket for one protocol speaker and
// tallies what it sends, by destination.
type countingEndpoint struct {
	ep    gossip.Endpoint
	sends atomic.Uint64
	bytes atomic.Uint64
}

func (c *countingEndpoint) Send(to string, p []byte) error {
	c.sends.Add(1)
	c.bytes.Add(uint64(len(p)))
	return c.ep.Send(to, p)
}
func (c *countingEndpoint) Addr() string { return c.ep.Addr() }

// attachLeaf makes m a federation leaf owning cohorts, dual-sending to
// aggs. The benchmark drives Rollup itself (see fleet.go), so the leaf's
// own loop is never started.
func (m *monitor) attachLeaf(id string, cohorts, aggs []string, interval time.Duration) (*countingEndpoint, error) {
	ep := &countingEndpoint{ep: m.udp}
	opts := federate.LeafOptions{ID: id, Region: "bench", Cohorts: cohorts, Interval: interval, Aggs: aggs}
	if m.gsp != nil {
		opts.WeightFn = m.gsp.Weight
	}
	leaf, err := federate.NewLeaf(ep, m.clk, m.reg, "", opts)
	if err != nil {
		return nil, err
	}
	m.leaf = leaf
	return ep, nil
}

// rollup runs one leaf roll-up round now and returns its duration.
func (m *monitor) rollup() time.Duration {
	t0 := time.Now()
	m.leaf.Rollup(m.clk.Now())
	return time.Since(t0)
}

// rollups is how many roll-up rounds the leaf has run.
func (m *monitor) rollups() uint64 { return m.leaf.Counters().Rollups }

// attachGossip starts a gossiper on the shared socket.
func (m *monitor) attachGossip(id string, peers []string, seed int64) *countingEndpoint {
	ep := &countingEndpoint{ep: m.udp}
	m.gsp = gossip.New(ep, m.clk, m.reg, peers, gossip.Options{ID: id, Quorum: 2, Seed: seed})
	m.gsp.InstrumentMetrics(m.reg.Metrics())
	m.gsp.Start()
	return ep
}

// gossipCounters returns the digests this monitor's gossiper has received
// and the global suspect verdicts it has published.
func (m *monitor) gossipCounters() (digestsReceived, globalSuspects uint64) {
	c := m.gsp.Counters()
	return c.DigestsReceived, c.GlobalSuspects
}

// timeGossipRound times extra anti-entropy rounds (idempotent
// maintenance) after the timed phase.
func (m *monitor) timeGossipRound(n int) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m.gsp.Round(m.clk.Now())
	}
	return float64(time.Since(t0)) / float64(n) / 1e3
}

// aggNode is one aggregator of the HA pair with its socket pump and
// /fleet surface, as sfdmon -mode aggregate runs it.
type aggNode struct {
	id  string
	udp *transport.UDP
	ep  *countingEndpoint
	agg *federate.Aggregator

	srv      *http.Server
	ln       net.Listener
	httpDone chan struct{}
	pumpDone chan struct{}

	// merge timing: nanoseconds spent in, and calls of, HandleDatagram.
	mergeNs    atomic.Int64
	mergeCount atomic.Int64
	// outbound mirror accounting, filled when traced.
	mirrorBytes atomic.Uint64
}

func startAggNode(clk *benchClock, id string, udp *transport.UDP, peer string, digest time.Duration, traced bool) (*aggNode, error) {
	n := &aggNode{id: id, udp: udp, httpDone: make(chan struct{}), pumpDone: make(chan struct{})}
	n.ep = &countingEndpoint{ep: udp}
	var ep gossip.Endpoint = n.ep
	if traced {
		ep = &mirrorMeter{ep: n.ep, bytes: &n.mirrorBytes}
	}
	n.agg = federate.NewAggregator(ep, clk, federate.AggregatorOptions{
		ID: id, Region: "bench", Peers: []string{peer}, DigestInterval: digest,
	})
	n.agg.Start()
	go func() {
		defer close(n.pumpDone)
		for in := range udp.Recv() {
			t0 := time.Now()
			n.agg.HandleDatagram(in.From, in.Payload)
			n.mergeNs.Add(int64(time.Since(t0)))
			n.mergeCount.Add(1)
			in.Release()
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("aggregator %s http: %w", id, err)
	}
	n.ln = ln
	mux := http.NewServeMux()
	mux.Handle("/", n.agg.Liveness().Handler())
	mux.Handle("/fleet", n.agg.Handler())
	n.srv = &http.Server{Handler: mux}
	go func() {
		defer close(n.httpDone)
		_ = n.srv.Serve(ln)
	}()
	return n, nil
}

// mirrorMeter classifies an aggregator's outbound datagrams so mirror
// bytes can be told from peer beats, acks and assignment pushes.
type mirrorMeter struct {
	ep    gossip.Endpoint
	bytes *atomic.Uint64
}

func (m *mirrorMeter) Send(to string, p []byte) error {
	if msg, err := federate.Decode(p); err == nil && msg.Mirror != nil {
		m.bytes.Add(uint64(len(p)))
	}
	return m.ep.Send(to, p)
}
func (m *mirrorMeter) Addr() string { return m.ep.Addr() }

func (n *aggNode) baseURL() string { return "http://" + n.ln.Addr().String() }

func (n *aggNode) stop() {
	_ = n.srv.Close()
	<-n.httpDone
	n.agg.Stop()
	_ = n.udp.Close()
	<-n.pumpDone
}

// timeRound times extra maintenance rounds after the timed phase.
func (n *aggNode) timeRound(clk *benchClock, rounds int) float64 {
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		n.agg.Round(clk.Now())
	}
	return float64(time.Since(t0)) / float64(rounds) / 1e3
}

// rounds is how many HA rounds the aggregator has run: it sends one peer
// beat per round to its one peer.
func (n *aggNode) rounds() uint64 { return n.agg.Counters().PeerBeatsSent }

// ---------------------------------------------------------- persistence

// snapshotCodec exports the registry once and times the codec both ways.
func (m *monitor) snapshotCodec() (encodeMs, decodeMs float64, bytes int, err error) {
	snap := m.reg.ExportSnapshot(m.clk.Now())
	t0 := time.Now()
	data := persist.EncodeSnapshot(snap)
	encodeMs = msSince(t0)
	t0 = time.Now()
	_, err = persist.DecodeSnapshot(data)
	decodeMs = msSince(t0)
	return encodeMs, decodeMs, len(data), err
}

func (m *monitor) checkpointStats() (snapshots, errors uint64) {
	if c := m.reg.Checkpointer(); c != nil {
		return c.Snapshots(), c.Errors()
	}
	return 0, 0
}

// -------------------------------------------------------- micro probes
//
// Timed calls into single exported functions, run after the timed phase
// of a traced run. Each returns mean nanoseconds per call.

var probeSink uint64

func probeLoop(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// probeHeartbeatCodec times Decode and AppendTo over captured payloads.
func probeHeartbeatCodec(payloads [][]byte) (decodeNs, encodeNs float64) {
	const n = 200_000
	decodeNs = probeLoop(n, func(i int) {
		m, name, _ := heartbeat.Decode(payloads[i%len(payloads)])
		probeSink += m.Seq + uint64(len(name))
	})
	msgs := make([]heartbeat.Message, len(payloads))
	for i, p := range payloads {
		msgs[i], _ = heartbeat.Unmarshal(p)
	}
	buf := make([]byte, 0, 320)
	encodeNs = probeLoop(n, func(i int) {
		buf = msgs[i%len(msgs)].AppendTo(buf[:0])
		probeSink += uint64(len(buf))
	})
	return
}

// probeTransportSend times UDP.Send to a bound but unread loopback sink.
func probeTransportSend(payload []byte) (float64, error) {
	src, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer src.Close()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer sink.Close()
	to := sink.LocalAddr().String()
	return probeLoop(20_000, func(int) { _ = src.Send(to, payload) }), nil
}

// probeDetectors times Observe on each detector over a jittered arrival
// series, and window.Ring.Push on its own.
func probeDetectors() map[string]float64 {
	const n = 400_000
	interval := 100 * time.Millisecond
	feed := func(d detector.Detector) float64 {
		return probeLoop(n, func(i int) {
			send := clock.Time(int64(i) * int64(interval))
			d.Observe(uint64(i+1), send, send.Add(time.Duration(1+i%7)*time.Millisecond))
		})
	}
	ring := window.NewRing[[2]int64](detWindow)
	return map[string]float64{
		"core.observe_ns":             feed(core.New(detCfg{Interval: interval, Margin: interval}.coreConfig())),
		"detector.chen_observe_ns":    feed(detector.NewChen(detWindow, interval, interval)),
		"detector.bertier_observe_ns": feed(detector.NewBertier(detWindow, interval, detector.DefaultBertierParams())),
		"detector.phi_observe_ns":     feed(detector.NewPhi(detWindow, 8, 0)),
		"window.push_ns": probeLoop(4*n, func(i int) {
			old, _ := ring.Push([2]int64{int64(i), int64(i)})
			probeSink += uint64(old[0])
		}),
	}
}

// stormFilters is the storm workload's subscription set; the trie probe
// and the workload share it so fanout.match_ns times the real shape.
func stormFilters(zones, racks int) []string {
	var out []string
	for z := 0; z < zones; z++ {
		out = append(out, fmt.Sprintf("dc/zone-%d/#", z))
		for r := 0; r < racks; r++ {
			out = append(out, fmt.Sprintf("dc/zone-%d/rack-%02d/#", z, r))
		}
	}
	return append(out, "dc/#")
}

func probeFanoutMatch(filters, names []string) float64 {
	t := fanout.New[int]()
	for i, f := range filters {
		if _, err := t.Subscribe(f, i); err != nil {
			return 0
		}
	}
	var buf []int
	return probeLoop(400_000, func(i int) {
		buf = t.MatchAppend(names[i%len(names)], buf[:0])
		probeSink += uint64(len(buf))
	})
}

// probeFederationCodec times one digest Marshal + Decode round trip over
// a digest of the fleet workload's shape.
func probeFederationCodec(cohorts int) (nsPerDigest float64, bytes int) {
	d := federate.Digest{Leaf: "leaf-0", Region: "bench", Inc: 1, Seq: 1, Weight: 1}
	for i := 0; i < cohorts; i++ {
		d.Cohorts = append(d.Cohorts, federate.CohortDigest{
			Filter: fmt.Sprintf("fleet/c-%02d/#", i), Streams: 1500, Trusted: 1499, Suspected: 1,
			Suspects: uint64(i), Trusts: uint64(i), QAPMin: 1, Tuned: 1500, TDSum: 1500, MRSum: 0.1,
			Notable: []federate.Notable{{Peer: fmt.Sprintf("fleet/c-%02d/k-00", i), Type: 1, At: 1, Inc: 1}},
		})
	}
	wire := d.Marshal()
	ns := probeLoop(2_000, func(int) {
		b := d.Marshal()
		m, _ := federate.Decode(b)
		probeSink += uint64(len(m.Digest.Cohorts))
	})
	return ns, len(wire)
}

// probeGossipCodec times one gossip digest Marshal + Unmarshal.
func probeGossipCodec(entries int) (nsPerDigest float64, bytes int) {
	d := gossip.Digest{Monitor: "mon-b", Weight: 1, Seq: 1}
	for i := 0; i < entries; i++ {
		d.Entries = append(d.Entries, gossip.Opinion{Subject: fmt.Sprintf("fleet/c-%02d/k-%02d", i%64, i/64), State: gossip.StateSuspect, Inc: 1, Level: 1.5})
	}
	wire := d.Marshal()
	ns := probeLoop(5_000, func(int) {
		b := d.Marshal()
		g, _ := gossip.UnmarshalDigest(b)
		probeSink += uint64(len(g.Entries))
	})
	return ns, len(wire)
}

// probeGossipMerge times Gossiper.HandleDatagram on a scratch gossiper.
func probeGossipMerge(clk *benchClock, entries int) float64 {
	reg := registry.New(clk, nil, registry.Options{MetricsMaxStreams: -1})
	g := gossip.New(nullEndpoint{}, clk, reg, []string{"peer"}, gossip.Options{ID: "probe"})
	defer g.Stop()
	d := gossip.Digest{Monitor: "mon-b", Weight: 1}
	for i := 0; i < entries; i++ {
		d.Entries = append(d.Entries, gossip.Opinion{Subject: fmt.Sprintf("fleet/c-%02d/k-%02d", i%64, i/64), State: gossip.StateSuspect, Inc: 1, Level: 1.5})
	}
	return probeLoop(2_000, func(i int) {
		d.Seq = uint64(i + 1)
		g.HandleDatagram(d.Marshal())
	}) / 1e3
}

type nullEndpoint struct{}

func (nullEndpoint) Send(string, []byte) error { return nil }
func (nullEndpoint) Addr() string              { return "probe" }

// ---------------------------------------------------------------- replay

// replayTrace is a generated heartbeat trace held in memory.
type replayTrace struct {
	name string
	tr   *trace.Trace
}

// genTrace generates count heartbeats of a paper preset (the preset's own
// seed: the golden QoS values are pinned against it).
func genTrace(preset string, count int) (*replayTrace, error) {
	p, err := trace.Preset(preset)
	if err != nil {
		return nil, err
	}
	p.Count = count
	return &replayTrace{name: preset, tr: trace.Collect(p.Meta, trace.NewGenerator(p))}, nil
}

func (t *replayTrace) len() int { return len(t.tr.Records) }

func (t *replayTrace) interval() time.Duration { return t.tr.Meta.Interval }

// slice returns records [from, to) as a trace of their own.
func (t *replayTrace) slice(from, to int) *trace.Trace {
	return &trace.Trace{Meta: t.tr.Meta, Records: t.tr.Records[from:to]}
}

func (t *replayTrace) lost(i int) bool { return t.tr.Records[i].Lost }

// lostAny reports whether any heartbeat in [from, to) was lost.
func (t *replayTrace) lostAny(from, to int) bool {
	for i := from; i < to; i++ {
		if t.tr.Records[i].Lost {
			return true
		}
	}
	return false
}

// record returns heartbeat i's sequence number, instants and loss flag.
func (t *replayTrace) record(i int) (seq uint64, send, recv int64, lost bool) {
	r := t.tr.Records[i]
	return r.Seq, int64(r.SendTime), int64(r.RecvTime), r.Lost
}

// replayDetectors are the four detectors of the paper's comparison, at
// one fixed parameter each, in report order.
var replayDetectors = []string{"sfd", "chen", "bertier", "phi"}

func newReplayDetector(kind string) detector.Detector {
	// The paper's settings (as internal/bench runs them): WS = 1000, the
	// sending interval estimated from the window, SM₁ = α = 100 ms.
	const ws = 1000
	switch kind {
	case "sfd":
		cfg := core.DefaultConfig()
		cfg.Targets = core.Targets{MaxTD: 900 * time.Millisecond, MaxMR: 0.35, MinQAP: 0.994}
		return core.New(cfg)
	case "chen":
		return detector.NewChen(ws, 0, 100*time.Millisecond)
	case "bertier":
		return detector.NewBertier(ws, 0, detector.DefaultBertierParams())
	default:
		return detector.NewPhi(ws, 8, 0)
	}
}

// qosOut is a replay's QoS in the paper's units.
type qosOut struct {
	TDns     int64
	MR, QAP  float64
	Mistakes int64
	Arrivals int64
}

func replayQoS(tr *trace.Trace, kind string) qosOut {
	r := qos.Replay(tr.Stream(), newReplayDetector(kind))
	return qosOut{int64(r.TDAvg), r.MR, r.QAP, r.Mistakes, r.Arrivals + r.Warmup}
}

// replayCrash replays tr with every heartbeat from crashSeq on dropped.
// It returns the detection latency (detected − crash), the estimator
// wait's two ends, and how many heartbeats the detector consumed.
func replayCrash(tr *trace.Trace, kind string, crashSeq uint64) (latencyNs, crashAt, detectedAt int64, fed int64, ok bool) {
	out := qos.ReplayWithCrash(tr.Stream(), newReplayDetector(kind), crashSeq)
	if out.DetectedAt == 0 {
		return 0, 0, 0, out.Arrivals + out.Warmup, false
	}
	return int64(out.Latency), int64(out.CrashAt), int64(out.DetectedAt), out.Arrivals + out.Warmup, true
}

// sweepSFD traces SFD's QoS curve over initial margins (Fig. 6–10's
// x-axis), returning TD per point and the heartbeats replayed.
func sweepSFD(tr *trace.Trace, marginsMs []float64) ([]int64, int64) {
	c := qos.Sweep(tr, "SFD", func(p float64) detector.Detector {
		cfg := core.DefaultConfig()
		cfg.InitialMargin = time.Duration(p * float64(time.Millisecond))
		return core.New(cfg)
	}, marginsMs)
	tds := make([]int64, len(c.Points))
	var fed int64
	for i, p := range c.Points {
		tds[i] = int64(p.Result.TDAvg)
		fed += p.Result.Arrivals + p.Result.Warmup
	}
	return tds, fed
}

// simRegistry is a registry on a simulated clock: replay's stand-in for
// the verdict path, where lag is wheel quantisation in simulated time and
// repeats to the bit.
type simRegistry struct {
	sim *clock.Sim
	reg *registry.Registry
	sub *registry.Subscription
}

func newSimRegistry(interval, margin time.Duration) *simRegistry {
	sim := clock.NewSim(clock.Time(clockShift))
	reg := registry.New(sim, func(string) detector.Detector {
		return core.New(detCfg{Interval: interval, Margin: margin}.coreConfig())
	}, registry.Options{MetricsMaxStreams: -1})
	reg.Start()
	return &simRegistry{sim: sim, reg: reg, sub: reg.Subscribe(1 << 16)}
}

func (s *simRegistry) observe(name string, seq uint64, send, recv int64) {
	s.sim.AdvanceTo(clock.Time(recv))
	s.reg.Observe(heartbeat.Arrival{From: name, Seq: seq, Send: clock.Time(send), Recv: clock.Time(recv)})
}

func (s *simRegistry) advanceTo(t int64) { s.sim.AdvanceTo(clock.Time(t)) }

func (s *simRegistry) freshness(name string) int64 {
	var fp clock.Time
	s.reg.Inspect(name, func(d detector.Detector) { fp = d.FreshnessPoint() })
	return int64(fp)
}

// drain returns the suspect events published since the last call.
func (s *simRegistry) drain(fn func(peer string, at int64)) {
	for {
		select {
		case ev := <-s.sub.C():
			if ev.Type == registry.EventSuspect {
				fn(ev.Peer, int64(ev.At))
			}
		default:
			return
		}
	}
}

func (s *simRegistry) streams() int { return s.reg.Len() }

func (s *simRegistry) stop() {
	s.sub.Close()
	s.reg.Stop()
}

// sortedKeys is a small helper for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
