// sfdmon is a live UDP heartbeat daemon: run it as a sender on the
// monitored host and as a monitor on the observing host. The monitor
// drives an SFD (or a baseline detector) per peer through the sharded
// registry, logs failure-bus transitions, evicts peers that stay
// offline, and prints a status table — the paper's PlanetLab motivation
// turned into a tool ("it is impractical to login one by one without
// any guidance").
//
// Usage:
//
//	# on the monitored host:
//	sfdmon -mode send -to 10.0.0.2:7946 -interval 100ms
//
//	# on the monitoring host (with the HTTP status surface):
//	sfdmon -mode monitor -listen :7946 -refresh 1s -serve :8080
//
//	# loopback demo in one process:
//	sfdmon -mode demo
//
//	# multi-monitor deployment: every monitor also gossips suspicion
//	# digests with its peers and publishes corroborated Global* verdicts:
//	sfdmon -mode monitor -listen :7946 -serve :8080 \
//	    -gossip -gossip-peers 10.0.0.3:7946,10.0.0.4:7946 -gossip-quorum 2
//
//	# chaos drill: replay a scripted impairment timeline against the
//	# live inbound stream (JSON file or inline DSL; see internal/chaos):
//	sfdmon -mode monitor -listen :7946 -serve :8080 \
//	    -chaos '2s+10s:loss(rate=0.4,burst=6);15s+5s:partition(dir=in)'
//
//	# crash-safe state: checkpoint detector/registry/gossip state to disk
//	# and warm-restart from it (SIGINT/SIGTERM flushes a final snapshot):
//	sfdmon -mode monitor -listen :7946 -state-dir /var/lib/sfdmon
//
//	# tail one subtree of a running monitor's failure events (NDJSON over
//	# the monitor's /watch endpoint; `+`/`#` wildcards route in the
//	# monitor's topic trie, so only matching events cross the wire).
//	# -retry reconnects with capped exponential backoff when the monitor
//	# restarts or sheds the connection (503 at the watch cap):
//	sfdmon -mode watch -url http://10.0.0.2:8080 -filter 'eu/+/web-1/#' -retry
//
//	# federation: a regional aggregator merges per-cohort digests from
//	# leaf monitors, tracks leaf liveness with the same SFD machinery,
//	# re-delegates a dead leaf's cohorts, and serves the fleet view:
//	sfdmon -mode aggregate -listen :7950 -serve :8090
//
//	# ... and each leaf monitor rolls its cohorts up to it:
//	sfdmon -mode monitor -listen :7946 -serve :8080 \
//	    -federate 10.0.0.9:7950 -fed-id eu/leaf-1 -fed-region eu \
//	    -fed-cohorts 'eu/cluster-3/#,eu/cluster-4/#'
//
// With -serve, the monitor exposes GET /status (full JSON snapshot),
// GET /vars (counters + per-shard occupancy), GET /metrics (Prometheus
// text exposition: receiver, registry, gossip, chaos, and per-stream
// detector QoS), GET /healthz, with -gossip GET /gossip (verdicts, peer
// weights, opinion table), and with -chaos GET /chaos (scenario,
// injection counters, active impairments; ?log=1 for the injection
// log). -pprof additionally mounts the Go profiler under /debug/pprof/
// on the same listener.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	sfd "repro"
)

// config is every sfdmon flag, one field each: bind registers them,
// validate checks them, and each mode's run function reads the ones it
// documents.
type config struct {
	mode     string
	to       string
	listen   string
	interval time.Duration
	jitter   float64
	ramp     time.Duration
	hbName   string
	refresh  time.Duration
	targets  sfd.Targets
	serve    string
	pprofOn  bool
	evict    time.Duration
	duration time.Duration

	rxQueues int
	rxBatch  int

	stateDir   string
	checkpoint time.Duration

	gossipOn       bool
	gossipPeers    string
	gossipID       string
	gossipInterval time.Duration
	gossipQuorum   int
	gossipSeed     int64

	chaosSpec string
	chaosSeed int64
	chaos     *sfd.ChaosScenario // chaosSpec resolved by validate; nil without -chaos

	watchURL    string
	watchFilter string
	watchBuf    int
	watchMax    int
	watchRetry  bool

	fedAgg      string
	fedAggs     string
	fedID       string
	fedRegion   string
	fedCohorts  string
	fedInterval time.Duration
	fedPeer     string
	fedInc      uint64
}

func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.mode, "mode", "demo", "send, monitor, aggregate, watch, or demo")
	fs.StringVar(&c.to, "to", "127.0.0.1:7946", "send: monitor address")
	fs.StringVar(&c.listen, "listen", ":7946", "monitor: bind address")
	fs.DurationVar(&c.interval, "interval", 100*time.Millisecond, "send: heartbeat interval")
	fs.Float64Var(&c.jitter, "jitter", 0, "send: per-beat uniform jitter fraction in [0,1) (0 = fixed cadence)")
	fs.DurationVar(&c.ramp, "ramp", 0, "send: random start delay drawn from [0,ramp) (desynchronizes fleets)")
	fs.StringVar(&c.hbName, "name", "", "send: logical stream name (wire-v3; the monitor keys the stream by name, surviving address changes)")
	fs.DurationVar(&c.refresh, "refresh", time.Second, "monitor: status print interval")
	fs.DurationVar(&c.targets.MaxTD, "maxtd", 2*time.Second, "monitor: target max detection time")
	fs.Float64Var(&c.targets.MaxMR, "maxmr", 0.5, "monitor: target max mistake rate")
	fs.Float64Var(&c.targets.MinQAP, "minqap", 0.99, "monitor: target min QAP")
	fs.StringVar(&c.serve, "serve", "", "monitor: HTTP status address (e.g. :8080; empty = disabled)")
	fs.BoolVar(&c.pprofOn, "pprof", false, "monitor: mount /debug/pprof/ on the -serve listener")
	fs.DurationVar(&c.evict, "evict", time.Minute, "monitor: drop peers offline this long (<0 = never)")
	fs.DurationVar(&c.duration, "duration", 0, "exit after this long (0 = run until interrupted)")

	fs.IntVar(&c.rxQueues, "rxqueues", 1, "monitor: parallel ingest queues (rounded up to a power of two)")
	fs.IntVar(&c.rxBatch, "rxbatch", 32, "monitor: datagrams per batched socket read (Linux recvmmsg fast path)")

	fs.StringVar(&c.stateDir, "state-dir", "", "monitor: directory for crash-safe state snapshots (empty = no persistence)")
	fs.DurationVar(&c.checkpoint, "checkpoint", 30*time.Second, "monitor: full-snapshot interval when -state-dir is set")

	fs.BoolVar(&c.gossipOn, "gossip", false, "monitor: exchange suspicion digests with peer monitors")
	fs.StringVar(&c.gossipPeers, "gossip-peers", "", "monitor: comma-separated peer monitor addresses")
	fs.StringVar(&c.gossipID, "gossip-id", "", "monitor: gossip identity (default: the bound address)")
	fs.DurationVar(&c.gossipInterval, "gossip-interval", 250*time.Millisecond, "monitor: anti-entropy round period")
	fs.IntVar(&c.gossipQuorum, "gossip-quorum", 2, "monitor: concurring monitors needed for a global verdict")
	fs.Int64Var(&c.gossipSeed, "gossip-seed", 0, "monitor: peer-selection seed (0 = default)")

	fs.StringVar(&c.chaosSpec, "chaos", "", "scenario to inject: a JSON file path or the flag DSL (see internal/chaos)")
	fs.Int64Var(&c.chaosSeed, "chaos-seed", 0, "override the scenario's injection seed (0 = keep)")

	fs.StringVar(&c.watchURL, "url", "http://127.0.0.1:8080", "watch: base URL of a monitor's HTTP surface")
	fs.StringVar(&c.watchFilter, "filter", "#", "watch: topic filter over stream names (+/# wildcards)")
	fs.IntVar(&c.watchBuf, "buf", 256, "watch: server-side subscription buffer (drop-oldest beyond it)")
	fs.IntVar(&c.watchMax, "max", 0, "watch: exit after this many events (0 = stream until interrupted)")
	fs.BoolVar(&c.watchRetry, "retry", false, "watch: reconnect with capped exponential backoff instead of exiting")

	fs.StringVar(&c.fedAgg, "federate", "", "monitor: aggregator address to roll cohort digests up to (empty = no federation)")
	fs.StringVar(&c.fedAggs, "fed-aggs", "", "monitor: comma-separated ordered aggregator addresses (HA pair; supersedes -federate)")
	fs.StringVar(&c.fedID, "fed-id", "", "monitor: federation leaf identity (default: the bound address)")
	fs.StringVar(&c.fedRegion, "fed-region", "", "monitor/aggregate: region label")
	fs.StringVar(&c.fedCohorts, "fed-cohorts", "", "monitor: comma-separated cohort topic filters this leaf owns (e.g. 'eu/cluster-3/#')")
	fs.DurationVar(&c.fedInterval, "fed-interval", time.Second, "monitor/aggregate: digest roll-up interval")
	fs.StringVar(&c.fedPeer, "fed-peer", "", "aggregate: comma-separated HA peer aggregator addresses (empty = standalone)")
	fs.Uint64Var(&c.fedInc, "fed-inc", 1, "aggregate: incarnation, bumped on restart so HA peers reset this instance's beat stream")
}

// validate rejects flag values the selected mode cannot run with, and
// resolves -chaos. main turns its error into exit status 2.
func (c *config) validate() error {
	switch c.mode {
	case "send":
		if strings.TrimSpace(c.to) == "" {
			return errors.New("-mode send needs a monitor address: -to host:port")
		}
		if c.interval <= 0 {
			return fmt.Errorf("-interval must be positive (got %v)", c.interval)
		}
		if c.jitter < 0 || c.jitter >= 1 {
			return fmt.Errorf("-jitter must be in [0,1) (got %g)", c.jitter)
		}
		if c.ramp < 0 {
			return fmt.Errorf("-ramp must be non-negative (got %v)", c.ramp)
		}
		if len(c.hbName) > sfd.MaxHeartbeatNameLen {
			return fmt.Errorf("-name must be at most %d bytes (got %d)", sfd.MaxHeartbeatNameLen, len(c.hbName))
		}
	case "monitor", "aggregate":
		// The status loop runs on a time.Ticker, which panics on these.
		if c.refresh <= 0 {
			return fmt.Errorf("-refresh must be positive (got %v)", c.refresh)
		}
		if c.mode == "monitor" && c.gossipOn && len(splitPeers(c.gossipPeers)) == 0 {
			return errors.New("-gossip requires -gossip-peers")
		}
	case "watch", "demo":
	default:
		return fmt.Errorf("unknown mode %q", c.mode)
	}
	if c.chaosSpec != "" {
		sc, err := loadScenario(c.chaosSpec, c.chaosSeed)
		if err != nil {
			return fmt.Errorf("-chaos: %v", err)
		}
		c.chaos = &sc
	}
	return nil
}

func main() {
	var c config
	c.bind(flag.CommandLine)
	flag.Parse()
	if err := c.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "sfdmon: %v\n", err)
		os.Exit(2)
	}
	switch c.mode {
	case "send":
		runSender(&c)
	case "monitor":
		runMonitor(&c)
	case "aggregate":
		runAggregate(&c)
	case "watch":
		runWatch(&c)
	case "demo":
		runDemo()
	}
}

// loadScenario resolves the -chaos flag: a readable file is parsed as
// JSON, anything else as the compact DSL. A nonzero seed flag overrides
// the scenario's own.
func loadScenario(spec string, seed int64) (sfd.ChaosScenario, error) {
	var sc sfd.ChaosScenario
	if b, err := os.ReadFile(spec); err == nil {
		sc, err = sfd.ParseChaosScenario(b)
		if err != nil {
			return sc, fmt.Errorf("%s: %w", spec, err)
		}
	} else {
		var derr error
		sc, derr = sfd.ParseChaosDSL(spec)
		if derr != nil {
			return sc, fmt.Errorf("neither a readable file (%v) nor a valid scenario DSL (%v)", err, derr)
		}
	}
	if seed != 0 {
		sc.Seed = seed
	}
	return sc, nil
}

func runSender(c *config) {
	udp, err := sfd.ListenUDP(":0")
	if err != nil {
		fatal(err)
	}
	defer udp.Close()
	var ep sfd.Endpoint = udp
	clk := sfd.NewRealClock()
	hbClk := clk

	// A send-side scenario impairs outbound heartbeats at the source and
	// lets skew steps drag the sender's timestamp clock.
	var ctl *sfd.ChaosController
	if c.chaos != nil {
		ctl = sfd.NewChaosController(clk, c.chaos.Seed)
		skewed := sfd.NewSkewedClock(clk)
		ctl.AttachClock(skewed)
		hbClk = skewed
		cep := sfd.WrapChaos(ep, ctl)
		cep.Start()
		ep = cep
		if err := ctl.Play(*c.chaos); err != nil {
			fatal(err)
		}
		fmt.Printf("sfdmon: chaos scenario %q armed (seed %d, %d steps)\n",
			c.chaos.Name, ctl.Seed(), len(c.chaos.Steps))
	}

	snd, err := newSender(c, ep, hbClk)
	if err != nil {
		fatal(err)
	}
	snd.Start()
	how := fmt.Sprintf("every %v", c.interval)
	if c.jitter > 0 {
		how += fmt.Sprintf(" ±%d%%", int(c.jitter*100))
	}
	if c.ramp > 0 {
		how += fmt.Sprintf(" after <%v ramp", c.ramp)
	}
	if c.hbName != "" {
		how += fmt.Sprintf(" as %q", c.hbName)
	}
	fmt.Printf("sfdmon: heartbeating to %s %s (from %s)\n", c.to, how, udp.Addr())
	waitForExit(c.duration)
	snd.Stop()
	fmt.Printf("sfdmon: sent %d heartbeats\n", snd.Sent())
	if ctl != nil {
		c := ctl.Counters()
		fmt.Printf("sfdmon: chaos injected loss=%d partition=%d delayed=%d reordered=%d duplicated=%d truncated=%d\n",
			c.LossDrops, c.PartDrops, c.Delayed, c.Reordered, c.Duplicated, c.Truncated)
	}
}

// newSender builds the -mode send heartbeat sender from the flags. Each
// call draws its own ramp delay and jitter stream, so a fleet of sfdmon
// senders started with the same flags does not beat in phase. Its
// incarnation is the wall time of the call: a restarted sender begins
// again at sequence 1, and only a higher incarnation keeps monitors from
// dropping the new life's beats as stale and refutes its old suspicion.
func newSender(c *config, ep sfd.Endpoint, clk sfd.Clock) (*sfd.HeartbeatSender, error) {
	snd := sfd.NewHeartbeatSender(ep, c.to, c.interval, clk)
	snd.SetName(c.hbName)
	snd.SetIncarnation(uint64(time.Now().UnixNano()))
	if err := snd.Pace(c.jitter, c.ramp); err != nil {
		return nil, err
	}
	return snd, nil
}

func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runMonitor(c *config) {
	// The chaos wrapper pumps only the primary receive channel, so a
	// scenario forces the transport back to a single ingest queue.
	rxQueues := c.rxQueues
	if c.chaos != nil && rxQueues > 1 {
		fmt.Fprintln(os.Stderr, "sfdmon: -chaos forces -rxqueues=1 (the chaos pump drains one queue)")
		rxQueues = 1
	}
	udp, err := sfd.ListenUDPOpts(c.listen, sfd.UDPOptions{Queues: rxQueues, Batch: c.rxBatch})
	if err != nil {
		fatal(err)
	}
	defer udp.Close()
	var ep sfd.Endpoint = udp
	clk := sfd.NewRealClock()

	// A monitor-side scenario sits between the socket and the receiver,
	// impairing the live inbound heartbeat/gossip stream.
	var ctl *sfd.ChaosController
	if c.chaos != nil {
		ctl = sfd.NewChaosController(clk, c.chaos.Seed)
		cep := sfd.WrapChaos(ep, ctl)
		cep.Start()
		defer cep.Close()
		ep = cep
		if err := ctl.Play(*c.chaos); err != nil {
			fatal(err)
		}
		fmt.Printf("sfdmon: chaos scenario %q armed (seed %d, %d steps)\n",
			c.chaos.Name, ctl.Seed(), len(c.chaos.Steps))
	}

	reg := sfd.NewRegistry(clk, sfd.SFDFactory(c.targets), sfd.RegistryOptions{
		EvictAfter:         c.evict,
		StateDir:           c.stateDir,
		CheckpointInterval: c.checkpoint,
	})
	reg.Start()
	defer reg.Stop()
	if c.stateDir != "" {
		// Start restored any valid snapshot (warm restart) and armed the
		// checkpointer; report what it found.
		switch n, err := reg.RestoredStreams(); {
		case err != nil && errors.Is(err, sfd.ErrNoSnapshot):
			fmt.Printf("sfdmon: no state snapshot in %s (cold start), checkpointing every %v\n", c.stateDir, c.checkpoint)
		case err != nil:
			fmt.Fprintf(os.Stderr, "sfdmon: state restore failed, cold start: %v\n", err)
		default:
			fmt.Printf("sfdmon: warm restart: restored %d streams from %s\n", n, c.stateDir)
		}
	}
	recv := sfd.NewHeartbeatReceiver(ep, clk, reg.Observe)

	// Gossip shares the heartbeat socket: digests (magic "SG") fall
	// through the receiver's heartbeat decoder into the gossiper.
	var gsp *sfd.Gossiper
	if c.gossipOn {
		gsp = sfd.NewGossiper(ep, clk, reg, splitPeers(c.gossipPeers), sfd.GossipOptions{
			ID:       c.gossipID,
			Interval: c.gossipInterval,
			Quorum:   c.gossipQuorum,
			Seed:     c.gossipSeed,
		})
		gsp.Start()
		defer gsp.Stop()
	}

	// Federation shares it too: assignment tables (magic "FD") arrive on
	// the same socket the leaf pushes digests through.
	var leaf *sfd.FederationLeaf
	if c.fedAgg != "" || c.fedAggs != "" {
		id := c.fedID
		if id == "" {
			id = ep.Addr()
		}
		opts := sfd.FederationLeafOptions{
			ID:       id,
			Region:   c.fedRegion,
			Cohorts:  splitPeers(c.fedCohorts),
			Interval: c.fedInterval,
			Aggs:     splitPeers(c.fedAggs),
		}
		if gsp != nil {
			opts.WeightFn = gsp.Weight // gossip accuracy feeds re-delegation preference
		}
		agg := c.fedAgg
		if agg == "" && len(opts.Aggs) > 0 {
			agg = opts.Aggs[0]
		}
		var err error
		leaf, err = sfd.NewFederationLeaf(ep, clk, reg, agg, opts)
		if err != nil {
			fatal(err)
		}
		leaf.Start()
		defer leaf.Stop()
	}
	if gsp != nil || leaf != nil {
		recv.SetForeign(func(in sfd.Inbound) {
			switch {
			case leaf != nil && sfd.IsFederationDatagram(in.Payload):
				leaf.HandleDatagramFrom(in.From, in.Payload)
			case gsp != nil:
				gsp.HandleDatagram(in.Payload)
			}
		})
	}
	recv.Start()

	// One /metrics page for the whole pipeline: the transport, receiver,
	// and gossiper register their instruments into the registry's set,
	// and the transport's raw counters land in the /vars "aux" section so
	// silent datagram drops are observable from both surfaces.
	udp.InstrumentMetrics(reg.Metrics())
	reg.RegisterVars("transport", func() any { return udp.Counters() })
	recv.InstrumentMetrics(reg.Metrics())
	if gsp != nil {
		gsp.InstrumentMetrics(reg.Metrics())
	}
	if leaf != nil {
		leaf.InstrumentMetrics(reg.Metrics())
	}
	if ctl != nil {
		ctl.InstrumentMetrics(reg.Metrics())
	}

	fmt.Printf("sfdmon: monitoring on %s (targets %v)\n", ep.Addr(), c.targets)
	fmt.Printf("sfdmon: ingest: %d queue(s), batched reads %v\n", udp.RecvQueues(), udp.Batched())
	if gsp != nil {
		fmt.Printf("sfdmon: gossiping as %s with %v (quorum %d, every %v)\n",
			gsp.ID(), gsp.Peers(), c.gossipQuorum, gsp.Options().Interval)
	}
	if leaf != nil {
		fmt.Printf("sfdmon: federating as leaf %s to %v (%d cohorts, every %v)\n",
			leaf.ID(), leaf.Aggregators(), len(leaf.Cohorts()), leaf.Options().Interval)
	}

	// Log every failure-bus transition. The receiver keeps no per-stream
	// state, so eviction frees a stream's only row, in the registry.
	sub := reg.Subscribe(1024)
	defer sub.Close()
	go func() {
		for ev := range sub.C() {
			fmt.Printf("event: %s\n", ev)
		}
	}()

	if c.serve != "" {
		mux := http.NewServeMux()
		mux.Handle("/", reg.Handler())
		surfaces := "/status (also /vars, /metrics, /healthz"
		if gsp != nil {
			mux.Handle("/gossip", gsp.Handler())
			surfaces += ", /gossip"
		}
		if ctl != nil {
			mux.Handle("/chaos", ctl.Handler())
			surfaces += ", /chaos"
		}
		if c.pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			surfaces += ", /debug/pprof"
		}
		srv := &http.Server{Addr: c.serve, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "sfdmon: http: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("sfdmon: serving http://%s%s)\n", c.serve, surfaces)
	}

	ticker := time.NewTicker(c.refresh)
	defer ticker.Stop()
	done := exitChan(c.duration)
loop:
	for {
		select {
		case <-done:
			break loop
		case <-ticker.C:
			now := clk.Now()
			fmt.Printf("--- %s ---\n", time.Now().Format(time.RFC3339))
			fmt.Print(sfd.FormatSnapshot(reg.Snapshot(now)))
			c := reg.Counters()
			if d := sub.Dropped(); d > 0 {
				fmt.Printf("warning: %d bus events dropped by the log subscriber\n", d)
			}
			fmt.Printf("counters: hb=%d stale=%d suspects=%d trusts=%d offline=%d evicted=%d streams=%d\n",
				c.Heartbeats, c.Stale, c.Suspects, c.Trusts, c.Offlines, c.Evictions, c.Streams)
		}
	}

	// Graceful shutdown (SIGINT/SIGTERM or -duration), in dependency
	// order: close the socket first so the receiver quiesces and no new
	// arrivals race the final snapshot, stop the gossiper, then stop the
	// registry — which flushes a full state snapshot when -state-dir is
	// set — and exit 0. The remaining defers (HTTP server, chaos wrapper)
	// are idempotent backstops.
	fmt.Println("sfdmon: shutting down")
	udp.Close()
	recv.Wait()
	if gsp != nil {
		gsp.Stop()
	}
	reg.Stop()
	if c.stateDir != "" {
		fmt.Printf("sfdmon: final state snapshot flushed to %s\n", c.stateDir)
	}
}

// runAggregate runs the regional federation tier: it listens for leaf
// digests over UDP, merges them into the fleet view, tracks leaf
// liveness with the same detector machinery the leaves use for their
// streams, and re-delegates a dead leaf's cohorts to survivors. With
// -fed-peer it runs as one half of an HA pair: peer beats and state
// mirrors flow to the listed addresses, the lowest alive id leads, and
// a restarted instance (bump -fed-inc) rejoins as standby and catches
// up by anti-entropy. With -serve it exposes GET /fleet (merged fleet,
// HA role, peers, re-delegation history) alongside the leaf-liveness
// registry's /status, /vars, /metrics.
func runAggregate(c *config) {
	udp, err := sfd.ListenUDP(c.listen)
	if err != nil {
		fatal(err)
	}
	defer udp.Close()
	clk := sfd.NewRealClock()

	id, peers := c.fedID, splitPeers(c.fedPeer)
	if id == "" {
		id = udp.Addr()
	}
	agg := sfd.NewFederationAggregator(udp, clk, sfd.FederationAggregatorOptions{
		ID:             id,
		Region:         c.fedRegion,
		Peers:          peers,
		Incarnation:    c.fedInc,
		DigestInterval: c.fedInterval,
	})
	agg.Start()
	defer agg.Stop()
	go sfd.Pump(udp, func(in sfd.Inbound) { agg.HandleDatagram(in.From, in.Payload) })

	fmt.Printf("sfdmon: aggregating on %s as %s (digest interval %v)\n", udp.Addr(), id, c.fedInterval)
	if len(peers) > 0 {
		fmt.Printf("sfdmon: HA pair with %v (incarnation %d, lowest alive id leads)\n", peers, c.fedInc)
	}

	if c.serve != "" {
		liveness := agg.Liveness()
		agg.InstrumentMetrics(liveness.Metrics())
		mux := http.NewServeMux()
		mux.Handle("/", liveness.Handler()) // leaf liveness: /status, /vars, /metrics, /healthz
		mux.Handle("/fleet", agg.Handler())
		if c.pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
		}
		srv := &http.Server{Addr: c.serve, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "sfdmon: http: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("sfdmon: serving http://%s/fleet (also /status, /vars, /metrics, /healthz)\n", c.serve)
	}

	ticker := time.NewTicker(c.refresh)
	defer ticker.Stop()
	done := exitChan(c.duration)
loop:
	for {
		select {
		case <-done:
			break loop
		case <-ticker.C:
			n := agg.Counters()
			fmt.Printf("fed: role=%s leaves=%d/%d cohorts=%d (orphans=%d) streams=%d digests=%d stale=%d bad=%d redelegations=%d assign-v%d\n",
				agg.Role(), n.LiveLeaves, n.Leaves, n.Cohorts, n.OrphanedCohorts, n.FleetStreams,
				n.DigestsReceived, n.DigestsStale, n.DigestsBad, n.Redelegations, agg.AssignVersion())
		}
	}
	fmt.Println("sfdmon: shutting down")
}

// runWatch tails a monitor's /watch endpoint: one HTTP long-poll whose
// NDJSON lines (hello, events, keepalive heartbeats with this
// connection's drop accounting) are printed as they arrive. The filter
// is matched server-side in the monitor's topic trie, so a narrow
// watcher costs the monitor — and the network — only its own events.
// With retry, a failed connection or a severed stream reconnects under
// capped exponential backoff (500ms doubling to 15s, reset after any
// successful connection) instead of exiting — a 503 from a monitor at
// its watch-connection cap is retried the same way.
func runWatch(c *config) {
	q := url.Values{}
	q.Set("filter", c.watchFilter)
	if c.watchBuf > 0 {
		q.Set("buf", strconv.Itoa(c.watchBuf))
	}
	if c.watchMax > 0 {
		q.Set("max", strconv.Itoa(c.watchMax))
	}
	target := strings.TrimRight(c.watchURL, "/") + "/watch?" + q.Encode()
	done := exitChan(c.duration)

	const (
		backoffMin = 500 * time.Millisecond
		backoffMax = 15 * time.Second
	)
	backoff := backoffMin
	total := 0
	for {
		lines, err := watchOnce(target, c.watchURL, c.watchFilter, done)
		total += lines
		select {
		case <-done: // local shutdown: a read error on the closed body is expected
			fmt.Fprintf(os.Stderr, "sfdmon: watch stream closed after %d lines\n", total)
			return
		default:
		}
		if !c.watchRetry {
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "sfdmon: watch stream closed after %d lines\n", total)
			return
		}
		if lines > 0 {
			backoff = backoffMin // the connection worked; start the ladder over
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfdmon: watch: %v; retrying in %v\n", err, backoff)
		} else {
			fmt.Fprintf(os.Stderr, "sfdmon: watch stream ended; retrying in %v\n", backoff)
		}
		select {
		case <-done:
			fmt.Fprintf(os.Stderr, "sfdmon: watch stream closed after %d lines\n", total)
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// watchOnce runs a single /watch connection to completion, returning how
// many NDJSON lines it printed and why it ended.
func watchOnce(target, base, filter string, done <-chan struct{}) (int, error) {
	resp, err := http.Get(target)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("%s: %s: %s", target, resp.Status, strings.TrimSpace(string(msg)))
	}
	fmt.Fprintf(os.Stderr, "sfdmon: watching %s with filter %q\n", base, filter)

	// Shutdown closes the body, unblocking the scanner.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-done:
			resp.Body.Close()
		case <-stop:
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		fmt.Println(sc.Text())
		lines++
	}
	return lines, sc.Err()
}

// runDemo wires a sender and monitor over UDP loopback, crashes the
// sender halfway, and shows the status flip.
func runDemo() {
	monEP, err := sfd.ListenUDP("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer monEP.Close()
	sndEP, err := sfd.ListenUDP("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer sndEP.Close()

	clk := sfd.NewRealClock()
	// Detector verdicts only: no silence net, and the crashed sender
	// stays on the board.
	mon := sfd.NewRegistry(clk, sfd.SFDFactory(sfd.Targets{MaxTD: time.Second, MaxMR: 1, MinQAP: 0.99}),
		sfd.RegistryOptions{MaxSilence: -1, EvictAfter: -1})
	mon.Start()
	defer mon.Stop()
	recv := sfd.NewHeartbeatReceiver(monEP, clk, mon.Observe)
	recv.Start()

	snd := sfd.NewHeartbeatSender(sndEP, monEP.Addr(), 20*time.Millisecond, clk)
	snd.Start()
	fmt.Println("demo: sender heartbeating over UDP loopback at 50 Hz")

	time.Sleep(2 * time.Second)
	printDemo(mon, clk, "while alive")
	fmt.Println("demo: crashing the sender...")
	snd.Crash()
	time.Sleep(1500 * time.Millisecond)
	printDemo(mon, clk, "after crash")
}

func printDemo(mon *sfd.Registry, clk sfd.Clock, label string) {
	for _, r := range mon.Snapshot(clk.Now()) {
		fmt.Printf("demo [%s]: peer=%s status=%s suspicion=%.3f\n",
			label, r.Peer, r.Status, r.SuspicionLevel)
	}
}

func exitChan(duration time.Duration) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		if duration > 0 {
			select {
			case <-sig:
			case <-time.After(duration):
			}
			return
		}
		<-sig
	}()
	return done
}

func waitForExit(duration time.Duration) { <-exitChan(duration) }

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sfdmon: %v\n", err)
	os.Exit(1)
}
