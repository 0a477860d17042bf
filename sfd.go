// Package sfd (import path "repro") is the public API of this
// reproduction of "A Self-tuning Failure Detection Scheme for Cloud
// Computing Service" (Xiong et al., IEEE IPDPS 2012).
//
// It provides:
//
//   - The paper's contribution: the SFD self-tuning accrual failure
//     detector (NewSFD) and the general self-tuning wrapper for any
//     timeout-based detector (NewSelfTuner).
//   - The baselines the paper compares against — Chen FD (NewChen),
//     Bertier FD (NewBertier), the φ accrual FD (NewPhi) — plus NewPhiExp,
//     NewRTO, a fixed timeout (NewFixed) and static provisioning (Configure).
//   - QoS evaluation by trace replay (Replay, ReplayWithCrash, Sweep) with
//     Chen et al.'s metrics: detection time, mistake rate, query accuracy
//     probability, over synthetic WAN traces calibrated to the paper's
//     Table II (TracePreset, NewTraceGenerator) and a binary trace codec.
//   - A live heartbeat stack over UDP or in-memory transports
//     (NewHeartbeatSender, NewHeartbeatReceiver, ListenUDP, NewHub).
//   - The cloud-monitoring engine (NewRegistry) implementing the
//     paper's "one monitors multiple" deployment at fleet scale: a
//     timer-wheel-driven status board and a bounded failure-event bus,
//     firehose (Subscribe) or routed by MQTT-style topic filters
//     (SubscribeTopic, MatchTopic).
//   - Monitors working together: gossip with quorum corroboration and
//     incarnation refutation (NewGossiper), leaf-to-aggregator federation
//     (NewFederationLeaf, NewFederationAggregator), Ω leader election
//     (NewElector), and Chandra–Toueg consensus (NewConsensus).
//   - Chaos fault injection on any endpoint (NewChaosController,
//     WrapChaos) and deterministic simulated deployments (NewSimCluster,
//     BuildConsortium).
//
// Quick start (see examples/quickstart for the runnable version):
//
//	det := sfd.NewSFD(sfd.Config{
//		Targets: sfd.Targets{MaxTD: 900 * time.Millisecond, MaxMR: 0.35, MinQAP: 0.994},
//	})
//	det.Observe(seq, sendTime, recvTime) // per heartbeat
//	if det.Suspect(now) { ... }
package sfd

import (
	"io"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/fanout"
	"repro/internal/federate"
	"repro/internal/gossip"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
	"repro/internal/persist"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Time is a monotonic instant in nanoseconds (see internal/clock).
type Time = clock.Time

// Duration aliases time.Duration.
type Duration = clock.Duration

// Clock abstracts a monotonic time source (real or simulated).
type Clock = clock.Clock

// NewRealClock returns a wall-clock-backed Clock.
func NewRealClock() Clock { return clock.NewReal() }

// NewSimClock returns a deterministic simulated Clock starting at origin.
func NewSimClock(origin Time) *clock.Sim { return clock.NewSim(origin) }

// Detector is a heartbeat failure detector: it consumes arrivals and
// exposes a freshness point (the instant suspicion begins).
type Detector = detector.Detector

// Accrual is a Detector that also outputs a continuous suspicion level.
type Accrual = detector.Accrual

// DefaultWindowSize is the paper's sliding-window size (WS = 1000).
const DefaultWindowSize = detector.DefaultWindowSize

// Config configures an SFD instance (see core.Config for field docs).
type Config = core.Config

// Targets is an application's QoS requirement: max detection time, max
// mistake rate, min query accuracy probability.
type Targets = core.Targets

// SFD is the paper's Self-tuning Failure Detector.
type SFD = core.SFD

// Tuning states, as SFD.State reports them.
const (
	StateWarmup     = core.StateWarmup
	StateTuning     = core.StateTuning
	StateStable     = core.StateStable
	StateInfeasible = core.StateInfeasible
)

// NewSFD builds the paper's Self-tuning Failure Detector; zero Config
// fields take paper-faithful defaults (WS=1000, α=100ms, β=0.5).
func NewSFD(cfg Config) *SFD { return core.New(cfg) }

// DefaultConfig returns the paper-faithful SFD configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// Tunable is a detector whose margin/timeout the general self-tuning
// method can drive.
type Tunable = core.Tunable

// TunerOptions configures NewSelfTuner.
type TunerOptions = core.TunerOptions

// SelfTuner retrofits the paper's feedback loop onto any Tunable.
type SelfTuner = core.SelfTuner

// NewSelfTuner wraps a Tunable detector with QoS feedback (§IV-A's
// general method).
func NewSelfTuner(d Tunable, opts TunerOptions) *SelfTuner { return core.NewSelfTuner(d, opts) }

// TunableChen adapts a Chen FD for NewSelfTuner (tunes α).
type TunableChen = core.TunableChen

// NewChen builds Chen et al.'s adaptive FD: window estimation plus a
// constant safety margin alpha. interval 0 estimates Δt from arrivals.
func NewChen(windowSize int, interval, alpha Duration) *detector.Chen {
	return detector.NewChen(windowSize, interval, alpha)
}

// BertierParams are Bertier's estimator constants (β, φ, γ).
type BertierParams = detector.BertierParams

// NewBertier builds Bertier et al.'s adaptive FD; zero params take the
// published β=1, φ=4, γ=0.1.
func NewBertier(windowSize int, interval Duration, p BertierParams) *detector.Bertier {
	return detector.NewBertier(windowSize, interval, p)
}

// NewPhi builds the φ accrual FD with the given suspicion threshold Φ.
func NewPhi(windowSize int, threshold float64, minSigma Duration) *detector.Phi {
	return detector.NewPhi(windowSize, threshold, minSigma)
}

// NewFixed builds the naive constant-timeout baseline.
func NewFixed(timeout Duration, warmup int) *detector.Fixed {
	return detector.NewFixed(timeout, warmup)
}

// NewRTO builds the TCP-RTO-style detector (Jacobson/Karels smoothing of
// inter-arrival times, timeout = srtt + k·rttvar); k ≤ 0 defaults to 4.
func NewRTO(k float64, warmup int) *detector.RTO {
	return detector.NewRTO(k, warmup)
}

// NewPhiExp builds the exponential-tail accrual detector (the
// Cassandra-style simplification of φ).
func NewPhiExp(windowSize int, threshold float64) *detector.PhiExp {
	return detector.NewPhiExp(windowSize, threshold)
}

// Static configuration procedure (Chen-style provisioning; see
// internal/detector/configure.go for the derivation).
type (
	// NetworkStats is the probabilistic network model Configure consumes.
	NetworkStats = detector.NetworkStats
	// Requirements is the QoS an application demands of a detector.
	Requirements = detector.Requirements
	// Configuration is a computed (interval, margin) operating point.
	Configuration = detector.Configuration
)

// ErrInfeasible reports that no operating point satisfies the
// requirements — the static analogue of SFD's "can not satisfy" response.
var ErrInfeasible = detector.ErrInfeasible

// Configure computes a heartbeat interval and safety margin meeting the
// requirements on a network with the given loss/delay statistics, or
// ErrInfeasible. Use it to provision Δt and SM₁; SFD's feedback then
// keeps them matched to the live network.
func Configure(net NetworkStats, req Requirements) (Configuration, error) {
	return detector.Configure(net, req)
}

// Result is the measured QoS of one replay.
type Result = qos.Result

// CrashOutcome extends Result with actual crash-detection latency.
type CrashOutcome = qos.CrashOutcome

// Curve is a detector's QoS trade-off curve from a parameter sweep.
type Curve = qos.Curve

// Replay feeds a heartbeat trace through a detector and measures its QoS
// exactly as the paper's replay-based evaluation does.
func Replay(s trace.Stream, det Detector) Result { return qos.Replay(s, det) }

// ReplayWithCrash injects a crash at crashSeq and measures the actual
// detection latency alongside the pre-crash QoS.
func ReplayWithCrash(s trace.Stream, det Detector, crashSeq uint64) CrashOutcome {
	return qos.ReplayWithCrash(s, det, crashSeq)
}

// SweepFactory builds a detector per parameter value.
type SweepFactory = qos.Factory

// Sweep traces a detector's QoS curve by replaying the trace once per
// parameter value.
func Sweep(tr *trace.Trace, name string, f SweepFactory, params []float64) Curve {
	return qos.Sweep(tr, name, f, params)
}

// Trace types and generation.
type (
	// Trace is a materialized heartbeat trace.
	Trace = trace.Trace
	// TraceMeta describes a trace's origin and parameters.
	TraceMeta = trace.Meta
	// TraceStream yields records in sequence order.
	TraceStream = trace.Stream
	// TraceGenParams parameterizes the synthetic WAN generator.
	TraceGenParams = trace.GenParams
	// TraceStats is the Table II statistics row for a trace.
	TraceStats = trace.Stats
)

// TracePreset returns the generator parameters of one of the paper's
// seven WAN environments ("WAN-JPCH", "WAN-1".."WAN-6").
func TracePreset(name string) (TraceGenParams, error) { return trace.Preset(name) }

// TracePresetNames lists the available environments in paper order.
func TracePresetNames() []string { return trace.PresetNames() }

// NewTraceGenerator returns a deterministic synthetic heartbeat stream.
func NewTraceGenerator(p TraceGenParams) TraceStream { return trace.NewGenerator(p) }

// CollectTrace materializes a stream.
func CollectTrace(meta TraceMeta, s TraceStream) *Trace { return trace.Collect(meta, s) }

// AnalyzeTrace computes a trace's Table II statistics.
func AnalyzeTrace(name string, s TraceStream) TraceStats { return trace.Analyze(name, s) }

// WriteTrace / ReadTrace encode traces in the compact binary format.
func WriteTrace(w io.Writer, t *Trace) error { return trace.Write(w, t) }

// ReadTrace decodes a binary trace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// Live heartbeat stack.
type (
	// Endpoint is an unreliable datagram endpoint.
	Endpoint = transport.Endpoint
	// HeartbeatArrival is one decoded heartbeat delivery. A receiver's
	// Name aliases its receive buffer and is valid only during the
	// handler call: copy it to keep it.
	HeartbeatArrival = heartbeat.Arrival
	// HeartbeatSender emits periodic heartbeats (the paper's process p).
	HeartbeatSender = heartbeat.Sender
	// HeartbeatReceiver decodes heartbeats and hands them on (process q).
	HeartbeatReceiver = heartbeat.Receiver
	// Prober estimates RTT with ping/pong, like the paper's parallel
	// low-frequency ping process.
	Prober = heartbeat.Prober
	// HeartbeatMessage is one wire message; Marshal encodes it.
	HeartbeatMessage = heartbeat.Message
)

// ListenUDP opens a UDP endpoint (e.g. "127.0.0.1:0") with default
// receive-path options: batched reads where the platform supports them,
// one ingest queue, a private receive-buffer pool.
func ListenUDP(addr string) (*transport.UDP, error) { return transport.ListenUDP(addr) }

// UDPOptions tunes the batched receive path (recvmmsg on Linux): batch
// size, buffer pool, and the ingest queues HeartbeatReceiver drains.
type UDPOptions = transport.UDPOptions

// ListenUDPOpts opens a UDP endpoint with explicit receive-path tuning.
func ListenUDPOpts(addr string, opts UDPOptions) (*transport.UDP, error) {
	return transport.ListenUDPOpts(addr, opts)
}

// NewHub returns an in-memory datagram switchboard for socket-free use.
func NewHub(lossRate float64, delay Duration, seed int64) *transport.Hub {
	return transport.NewHub(lossRate, delay, seed)
}

// MaxHeartbeatNameLen is the longest stream name a named heartbeat
// carries (HeartbeatSender.SetName panics beyond it).
const MaxHeartbeatNameLen = heartbeat.MaxNameLen

// KindHeartbeat marks a liveness message; ping and pong are the others.
const KindHeartbeat = heartbeat.KindHeartbeat

// DecodeHeartbeat decodes a heartbeat datagram, failing on anything else.
func DecodeHeartbeat(b []byte) (HeartbeatMessage, error) { return heartbeat.Unmarshal(b) }

// NewHeartbeatSender emits a heartbeat to `to` every interval; Pace adds
// per-beat jitter and a random start delay.
func NewHeartbeatSender(ep Endpoint, to string, interval Duration, clk Clock) *HeartbeatSender {
	return heartbeat.NewSender(ep, to, interval, clk)
}

// NewHeartbeatReceiver drains ep, answers pings, and feeds every
// heartbeat to h. It keeps no per-stream state: the registry's Observe
// drops stale heartbeats.
func NewHeartbeatReceiver(ep Endpoint, clk Clock, h func(HeartbeatArrival)) *HeartbeatReceiver {
	return heartbeat.NewReceiver(ep, clk, h)
}

// NewProber measures RTT against `to` through ep.
func NewProber(ep Endpoint, to string, clk Clock) *Prober {
	return heartbeat.NewProber(ep, to, clk)
}

// Cloud-monitoring layer: the status model and the helpers around the
// registry (NewRegistry, below), the one monitoring engine.
type (
	// MonitorReport is a point-in-time view of one peer.
	MonitorReport = registry.Report
	// PeerStatus classifies a monitored server.
	PeerStatus = registry.Status
	// DetectorFactory builds a detector per watched peer.
	DetectorFactory = registry.Factory
)

// Peer status values (the paper's active / busy / offline classification).
const (
	PeerUnknown   = registry.StatusUnknown
	PeerActive    = registry.StatusActive
	PeerBusy      = registry.StatusBusy
	PeerSuspected = registry.StatusSuspected
	PeerOffline   = registry.StatusOffline
)

// SFDFactory returns a DetectorFactory producing SFDs with the given
// targets and otherwise default configuration.
func SFDFactory(targets Targets) DetectorFactory {
	return func(string) Detector {
		cfg := core.DefaultConfig()
		cfg.Targets = targets
		return core.New(cfg)
	}
}

// Reactor implements the paper's graduated-reaction pattern (§I):
// applications register actions at ascending suspicion thresholds; each
// fires once per suspicion episode.
type Reactor = detector.Reactor

// NewReactor returns an empty graduated-reaction registry.
func NewReactor() *Reactor { return detector.NewReactor() }

// FormatSnapshot renders a Registry snapshot as an aligned status board.
func FormatSnapshot(reports []MonitorReport) string { return registry.FormatSnapshot(reports) }

// SummarizeSnapshot counts a snapshot by status and lists the peers
// needing attention.
func SummarizeSnapshot(reports []MonitorReport) (map[PeerStatus]int, []string) {
	return registry.Summarize(reports)
}

// Elector implements Ω (eventual leader election) over a Registry: the
// leader is the smallest-ranked candidate not currently suspected.
type Elector = federate.Elector

// NewElector builds an elector for the candidate set; self is this
// process's own name and reg must watch the other candidates.
func NewElector(self string, reg *Registry, candidates []string) *Elector {
	return federate.NewElector(self, reg, candidates)
}

// Fleet-scale monitoring: the sharded registry, its timer wheel, and
// the failure-event bus (see internal/registry).
type (
	// Registry is a sharded, timer-wheel-scheduled monitoring table for
	// tens of thousands of heartbeat streams.
	Registry = registry.Registry
	// RegistryOptions tunes sharding, wheel granularity, thresholds, and
	// eviction policy.
	RegistryOptions = registry.Options
	// Event is one failure-detection state transition on the event bus.
	Event = registry.Event
	// EventType classifies an Event.
	EventType = registry.EventType
	// SubscriptionStats is one subscription's delivery accounting
	// (delivered / dropped / queued), as listed on /vars.
	SubscriptionStats = registry.SubscriptionStats
	// FanoutStats is the topic trie's size and routing counters.
	FanoutStats = fanout.Stats
)

// Failure-event kinds published on the registry bus. The Global* kinds
// are corroborated verdicts from the gossip layer (Source names the
// publishing monitor); the rest are this monitor's local transitions.
const (
	EventSuspect       = registry.EventSuspect
	EventTrust         = registry.EventTrust
	EventOffline       = registry.EventOffline
	EventEvicted       = registry.EventEvicted
	EventCannotSatisfy = registry.EventCannotSatisfy
	EventGlobalSuspect = registry.EventGlobalSuspect
	EventGlobalOffline = registry.EventGlobalOffline
	EventGlobalTrust   = registry.EventGlobalTrust
)

// NewRegistry builds a fleet-scale monitoring registry. nil clk means
// the real clock; nil f defaults every stream to an SFD instance. Call
// Start to arm the timer wheel, Observe per heartbeat arrival, and
// Subscribe to consume transition events.
func NewRegistry(clk Clock, f DetectorFactory, opts RegistryOptions) *Registry {
	return registry.New(clk, f, opts)
}

// Interest-routed subscriptions: stream names are hierarchical
// (`region/cluster/host/service`), and a topic filter selects a subtree
// with MQTT-style wildcards — `+` matches exactly one segment, a final
// `#` matches the rest (including nothing). Registry.SubscribeTopic
// attaches a filtered subscription; the registry's /watch endpoint
// streams one as NDJSON over HTTP.

// MatchTopic reports whether a topic filter matches a stream name, e.g.
// MatchTopic("eu/+/web-1/#", "eu/zrh/web-1/api") == true. It returns
// false for invalid filters or names (see ValidateTopicFilter).
func MatchTopic(filter, name string) bool { return fanout.MatchTopic(filter, name) }

// ValidateStreamName reports whether a stream name is publishable:
// non-empty `/`-separated segments, no `+` or `#`. The registry rejects
// invalid names at registration.
func ValidateStreamName(name string) error { return fanout.ValidateName(name) }

// ValidateTopicFilter reports whether a topic filter is well-formed:
// wildcards only as whole segments, `#` only in the last position.
func ValidateTopicFilter(filter string) error { return fanout.ValidateFilter(filter) }

// ErrNoSnapshot reports an empty state directory on restore — the normal
// first-boot condition, distinct from corruption. Set
// RegistryOptions.StateDir to arm crash-safe persistence (see
// internal/persist); Registry.Stop flushes a final snapshot.
var ErrNoSnapshot = persist.ErrNoSnapshot

// Gossip dissemination layer: multi-monitor suspicion exchange with
// accuracy-weighted quorum corroboration (see internal/gossip).
type (
	// Gossiper is one monitor's membership in the dissemination fabric.
	Gossiper = gossip.Gossiper
	// GossipOptions tunes round interval, fanout, quorum, weighting, and
	// opinion TTL.
	GossipOptions = gossip.Options
	// GossipEndpoint is the send-only datagram surface a Gossiper needs;
	// transport endpoints and netsim nodes both satisfy it.
	GossipEndpoint = gossip.Endpoint
)

// Gossip opinion states, ordered by severity, as Gossiper.VerdictOf
// reports them.
const (
	GossipTrusted = gossip.StateTrusted
	GossipSuspect = gossip.StateSuspect
	GossipOffline = gossip.StateOffline
)

// NewGossiper attaches a dissemination-layer member to reg, gossiping
// over ep with the given peer monitor addresses. Feed received non-
// heartbeat datagrams to HandleDatagram (HeartbeatReceiver.SetForeign
// does this when the socket is shared) and call Start. Corroborated
// verdicts surface as EventGlobal* events on reg's bus.
func NewGossiper(ep GossipEndpoint, clk Clock, reg *Registry, peers []string, opts GossipOptions) *Gossiper {
	return gossip.New(ep, clk, reg, peers, opts)
}

// Hierarchical federation tier (see internal/federate): leaf monitors
// own cohorts of heartbeat streams (topic-filter prefixes) and roll
// compact per-cohort digests up to a regional aggregator over the same
// unreliable datagram fabric as heartbeats. The aggregator merges
// digests into a fleet view (GET /fleet), monitors leaf liveness with
// the same SFD detector machinery (the digest stream is itself a
// monitored heartbeat stream), and on leaf death re-delegates the dead
// leaf's cohorts to surviving leaves through a versioned assignment
// table. Digest bandwidth is O(cohorts), not O(streams).
type (
	// FederationLeaf is a leaf monitor's roll-up agent: it sweeps the
	// local Registry, folds bus transitions into per-cohort digests, and
	// pushes them to its aggregator every interval.
	FederationLeaf = federate.Leaf
	// FederationLeafOptions tunes identity, cohorts, and roll-up cadence.
	FederationLeafOptions = federate.LeafOptions
	// FederationAggregator is the regional tier: digest merge, leaf
	// liveness, cohort re-delegation, and the /fleet query surface.
	FederationAggregator = federate.Aggregator
	// FederationAggregatorOptions tunes digest cadence and leaf-liveness
	// thresholds.
	FederationAggregatorOptions = federate.AggregatorOptions
)

// NewFederationLeaf attaches a roll-up agent to reg, digesting to the
// aggregator at agg through ep — or to the ordered HA pair in
// opts.Aggs, which supersedes agg. Feed received federation datagrams
// (assignment tables and digest acks) to HandleDatagramFrom and call
// Start.
func NewFederationLeaf(ep GossipEndpoint, clk Clock, reg *Registry, agg string, opts FederationLeafOptions) (*FederationLeaf, error) {
	return federate.NewLeaf(ep, clk, reg, agg, opts)
}

// NewFederationAggregator builds a regional aggregator replying through
// ep. Set opts.Peers to run it as half of an HA pair: the pair exchange
// state heartbeats and anti-entropy mirrors, elect the lowest alive id
// leader, and fail over within a few digest intervals. Feed received
// datagrams to HandleDatagram(from, payload) and call Start; mount
// Handler() for GET /fleet.
func NewFederationAggregator(ep GossipEndpoint, clk Clock, opts FederationAggregatorOptions) *FederationAggregator {
	return federate.NewAggregator(ep, clk, opts)
}

// IsFederationDatagram reports whether a payload carries the federation
// magic — the dispatch test when the socket is shared with heartbeats
// and gossip.
func IsFederationDatagram(payload []byte) bool { return federate.IsFederation(payload) }

// Chaos fault-injection layer (see internal/chaos): an Endpoint
// middleware that injects deterministic, seeded impairments — burst
// loss, delay/jitter, reordering, duplication, truncation, directional
// partitions, clock skew — into the live heartbeat stack, steered by a
// runtime Controller and scriptable Scenario timelines.
type (
	// ChaosController arms/disarms impairments, owns the injection
	// randomness and counters, and replays Scenario timelines.
	ChaosController = chaos.Controller
	// ChaosEndpoint wraps any Endpoint with the armed impairments.
	ChaosEndpoint = chaos.Endpoint
	// ChaosScenario is an ordered impairment timeline.
	ChaosScenario = chaos.Scenario
	// SkewedClock offsets a Clock by a settable step plus drift — the
	// send-side timestamp-skew fault.
	SkewedClock = chaos.SkewedClock
)

// NewChaosController builds an idle impairment controller drawing
// injection randomness from seed. nil clk means the real clock.
func NewChaosController(clk Clock, seed int64) *ChaosController {
	return chaos.NewController(clk, seed)
}

// WrapChaos layers chaos injection over an endpoint, steered by ctl.
func WrapChaos(inner Endpoint, ctl *ChaosController) *ChaosEndpoint {
	return chaos.Wrap(inner, ctl)
}

// ParseChaosScenario decodes and validates a JSON scenario file.
func ParseChaosScenario(b []byte) (ChaosScenario, error) { return chaos.ParseScenario(b) }

// ParseChaosDSL parses the compact flag form of a scenario, e.g.
// "seed=7;2s+10s:loss(rate=0.3,burst=5);15s+5s:partition(dir=in)".
func ParseChaosDSL(s string) (ChaosScenario, error) { return chaos.ParseDSL(s) }

// NewSkewedClock wraps a Clock with zero initial skew; attach it to a
// ChaosController so skew impairments drive it.
func NewSkewedClock(inner Clock) *SkewedClock { return chaos.NewSkewedClock(inner) }

// Inbound is one received datagram (transport layer).
type Inbound = transport.Inbound

// Pump drains an endpoint into a handler until the endpoint closes; run
// it on its own goroutine to feed a Gossiper that owns a whole socket.
func Pump(ep Endpoint, h func(Inbound)) { transport.Pump(ep, h) }

// Simulation layer (deterministic, no sockets).
type (
	// SimCluster is a simulated monitoring deployment: senders and
	// registry-backed monitors over simulated links and one clock.
	SimCluster = bench.SimCluster
	// Consortium is the Fig. 1 multi-cloud scenario.
	Consortium = bench.Consortium
	// ConsortiumConfig parameterizes BuildConsortium.
	ConsortiumConfig = bench.ConsortiumConfig
	// LinkParams describes a simulated network link.
	LinkParams = netsim.LinkParams
)

// NewSimCluster creates a simulated deployment with the given default
// link parameters and seed.
func NewSimCluster(def LinkParams, seed int64) *SimCluster {
	return bench.NewSimCluster(def, seed)
}

// BuildConsortium constructs the education-cloud consortium of Fig. 1.
func BuildConsortium(cfg ConsortiumConfig) *Consortium { return bench.BuildConsortium(cfg) }

// Consensus layer: Chandra–Toueg consensus driven by these failure
// detectors (the paper's ◇P_ac ⇒ consensus claim, executable).
type (
	// ConsensusCluster is a simulated set of consensus processes.
	ConsensusCluster = consensus.Cluster
	// ConsensusOptions configures NewConsensus.
	ConsensusOptions = consensus.Options
)

// NewConsensus builds a simulated consensus cluster whose processes
// monitor each other with detectors from Options.Factory (default: Chen).
func NewConsensus(opts ConsensusOptions) *ConsensusCluster { return consensus.New(opts) }
