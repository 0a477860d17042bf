// Package consensus implements Chandra–Toueg rotating-coordinator
// consensus driven by the repository's failure detectors. The paper
// asserts (§IV-B) that SFD "belongs to the class ♦P_ac ... which is
// sufficient to solve the consensus problem"; this package demonstrates
// the claim executably: N simulated processes, each monitoring its peers
// with an SFD (or any detector.Detector), reach agreement despite
// crashes, using suspicion only to bypass dead coordinators.
//
// Algorithm (Chandra & Toueg 1996, ◇S + majority, crash-stop model,
// quasi-reliable channels):
//
//	round r, coordinator c = r mod n:
//	  phase 1: every process sends its (estimate, ts) to c.
//	  phase 2: c gathers a majority of estimates, adopts the one with
//	           the highest ts, and proposes it to all.
//	  phase 3: each process waits for c's proposal OR suspects c via its
//	           failure detector; it replies ACK (adopting the proposal,
//	           ts := r) or NACK, then moves to round r+1.
//	  phase 4: if c gathers a majority of ACKs it decides and reliably
//	           broadcasts the decision.
//
// Safety (agreement, validity) never depends on the detector; only
// termination does — exactly the unreliable-FD contract of the paper's
// reference [21].
package consensus

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/netsim"
	"repro/internal/registry"
)

// msgKind discriminates consensus wire messages.
type msgKind uint8

const (
	kindEstimate msgKind = iota + 1
	kindPropose
	kindAck
	kindNack
	kindDecide
)

// message is the consensus wire format (JSON over simulated datagrams;
// consensus traffic is control-plane, so compactness is irrelevant).
type message struct {
	Kind  msgKind `json:"k"`
	From  int     `json:"f"`
	Round int     `json:"r"`
	Value string  `json:"v,omitempty"`
	TS    int     `json:"t"`
}

// phase of the per-process state machine.
type phase int

const (
	phaseEstimate phase = iota // need to send estimate to coordinator
	phaseWaitProposal
	phaseDone
)

// Process is one consensus participant. It owns a netsim node, a
// heartbeat beacon to its peers, and a failure-detector monitor over
// them.
type Process struct {
	id    int
	n     int
	names []string
	node  *netsim.Node
	clk   *clock.Sim
	mon   *registry.Registry

	estimate string
	ts       int
	round    int
	ph       phase

	decided  bool
	decision string
	crashed  bool

	// Coordinator bookkeeping for the round it currently coordinates.
	estimates map[int]message
	acks      map[int]bool
	nacks     map[int]bool
	proposed  bool

	// Heartbeat emission.
	hbSeq      uint64
	hbInterval clock.Duration

	// waitingSince marks entry into phaseWaitProposal: the grace-period
	// anchor for coordinators that never produced any heartbeat history.
	waitingSince clock.Time
	startAt      clock.Time
}

// Cluster is a set of consensus processes over one simulated network.
type Cluster struct {
	Clk   *clock.Sim
	Net   *netsim.Network
	Procs []*Process
}

// Options configures a consensus cluster.
type Options struct {
	N          int               // number of processes (≥ 3)
	Link       netsim.LinkParams // consensus + heartbeat links (should be loss-free for liveness)
	HBInterval clock.Duration    // heartbeat period (default 50 ms)
	Factory    registry.Factory  // detector per peer (default: Chen with 4×HBInterval margin)
	Seed       int64
	// StartDelay postpones the consensus protocol (heartbeats flow from
	// t=0) so detectors build arrival history first — the paper's
	// warm-up discipline applied to the consensus layer.
	StartDelay clock.Duration
}

// New builds a consensus cluster. Every process heartbeats to every
// other and monitors every other with its own detector instance.
func New(opts Options) *Cluster {
	if opts.N < 3 {
		panic("consensus: need at least 3 processes")
	}
	if opts.HBInterval <= 0 {
		opts.HBInterval = 50 * clock.Millisecond
	}
	if opts.Factory == nil {
		hb := opts.HBInterval
		opts.Factory = func(string) detector.Detector {
			return detector.NewChen(20, hb, 4*hb)
		}
	}
	if opts.Link == (netsim.LinkParams{}) {
		opts.Link = netsim.LinkParams{
			DelayBase: 2 * clock.Millisecond, JitterMean: clock.Millisecond,
			JitterStd: clock.Millisecond,
		}
	}
	clk := clock.NewSim(0)
	net := netsim.New(clk, opts.Link, opts.Seed)

	c := &Cluster{Clk: clk, Net: net}
	names := make([]string, opts.N)
	for i := 0; i < opts.N; i++ {
		names[i] = fmt.Sprintf("p%d", i)
	}
	for i := 0; i < opts.N; i++ {
		p := &Process{
			id: i, n: opts.N, names: names,
			node: net.AddNode(names[i], 4096),
			clk:  clk,
			// The FD verdict is the detector's alone (an unknown
			// coordinator gets the protocol's own grace period instead
			// of a silence net), and suspected peers stay tracked.
			mon: registry.New(clk, opts.Factory, registry.Options{MaxSilence: -1, EvictAfter: -1}),
			ts:  -1, hbInterval: opts.HBInterval,
			startAt:   clock.Time(opts.StartDelay),
			estimates: make(map[int]message),
			acks:      make(map[int]bool),
			nacks:     make(map[int]bool),
		}
		p.mon.Start()
		for j, name := range names {
			if j == i {
				continue
			}
			if err := p.mon.Register(name); err != nil {
				panic(err) // names are generated above
			}
		}
		c.Procs = append(c.Procs, p)
	}
	return c
}

// Propose sets a process's initial value (its vote). Its timestamp is
// −1, below every round's: an estimate adopted in round 0 carries ts 0
// and must outrank every initial estimate, or round 1's coordinator could
// break a tie against round 0's lock and propose a different value.
func (c *Cluster) Propose(id int, value string) {
	p := c.Procs[id]
	p.estimate = value
	p.ts = -1
}

// Crash stops a process permanently: no more heartbeats, no more
// consensus messages, inbox ignored.
func (c *Cluster) Crash(id int) { c.Procs[id].crashed = true }

// CrashAt schedules a crash after the given simulated delay — used to
// kill a process that has already heartbeated (so survivors' detectors
// have a history to suspect from, the paper's crash-stop scenario).
func (c *Cluster) CrashAt(id int, after clock.Duration) {
	c.Clk.AfterFunc(after, func(clock.Time) { c.Procs[id].crashed = true })
}

// coordinator of round r.
func coord(r, n int) int { return r % n }

// majority threshold.
func majority(n int) int { return n/2 + 1 }

func (p *Process) send(to int, m message) {
	if p.crashed {
		return
	}
	m.From = p.id
	buf, _ := json.Marshal(m)
	_ = p.node.Send(p.names[to], append([]byte{'C'}, buf...))
}

func (p *Process) broadcast(m message) {
	for j := 0; j < p.n; j++ {
		if j != p.id {
			p.send(j, m)
		}
	}
}

// pump advances the process: emit heartbeats on schedule (driven by the
// harness), drain the inbox, run the state machine.
func (p *Process) pump(now clock.Time) {
	if p.crashed {
		p.node.Drain() // discard; a crashed process does nothing
		return
	}
	for {
		in, ok := p.node.TryRecv()
		if !ok {
			break
		}
		if len(in.Payload) == 0 {
			continue
		}
		switch in.Payload[0] {
		case 'C':
			var m message
			if err := json.Unmarshal(in.Payload[1:], &m); err == nil {
				p.handle(m)
			}
		default:
			if hb, err := heartbeat.Unmarshal(in.Payload); err == nil && hb.Kind == heartbeat.KindHeartbeat {
				p.mon.Observe(heartbeat.Arrival{From: in.From, Seq: hb.Seq, Send: hb.Time, Recv: in.At})
			}
		}
	}
	p.step(now)
}

// emitHeartbeat broadcasts one liveness beacon.
func (p *Process) emitHeartbeat(now clock.Time) {
	if p.crashed {
		return
	}
	msg := heartbeat.Message{Kind: heartbeat.KindHeartbeat, Seq: p.hbSeq, Time: now}
	p.hbSeq++
	payload := msg.Marshal()
	for j, name := range p.names {
		if j != p.id {
			_ = p.node.Send(name, payload)
		}
	}
}

// handle processes one consensus message.
func (p *Process) handle(m message) {
	if p.decided {
		// Help laggards: answer anything with the decision.
		if m.Kind != kindDecide {
			p.send(m.From, message{Kind: kindDecide, Round: p.round, Value: p.decision})
		}
		return
	}
	switch m.Kind {
	case kindDecide:
		p.decide(m.Value)
	case kindEstimate:
		if m.Round >= p.round && coord(m.Round, p.n) == p.id {
			// Stash estimates per round; only the current round's
			// matter, keyed by sender (dedup).
			if m.Round == p.round {
				p.estimates[m.From] = m
			} else {
				// Future round: we lag; catch up.
				p.advanceTo(m.Round)
				p.estimates[m.From] = m
			}
		}
	case kindPropose:
		if m.Round == p.round && p.ph == phaseWaitProposal && coord(m.Round, p.n) == m.From {
			p.estimate, p.ts = m.Value, m.Round
			p.send(m.From, message{Kind: kindAck, Round: m.Round})
			p.nextRound()
		} else if m.Round > p.round {
			p.advanceTo(m.Round)
			p.estimate, p.ts = m.Value, m.Round
			p.send(m.From, message{Kind: kindAck, Round: m.Round})
			p.nextRound()
		}
	case kindAck:
		if coord(m.Round, p.n) == p.id {
			p.acks[m.From] = true
			p.tryDecideAsCoordinator(m.Round)
		}
	case kindNack:
		if coord(m.Round, p.n) == p.id {
			p.nacks[m.From] = true
		}
	}
}

// step runs the phase logic that is driven by time rather than messages.
func (p *Process) step(now clock.Time) {
	if p.decided || p.estimate == "" || now.Before(p.startAt) {
		return
	}
	switch p.ph {
	case phaseEstimate:
		c := coord(p.round, p.n)
		m := message{Kind: kindEstimate, Round: p.round, Value: p.estimate, TS: p.ts}
		if c == p.id {
			p.estimates[p.id] = message{Kind: kindEstimate, From: p.id, Round: p.round, Value: p.estimate, TS: p.ts}
		} else {
			p.send(c, m)
		}
		p.ph = phaseWaitProposal
		p.waitingSince = now

	case phaseWaitProposal:
		c := coord(p.round, p.n)
		if c == p.id {
			p.tryProposeAsCoordinator()
			p.tryDecideAsCoordinator(p.round)
			return
		}
		// Waiting on the coordinator: bail out if the FD suspects it.
		// A coordinator that never heartbeated at all (crashed before
		// its first beacon) stays StatusUnknown forever, so an unknown
		// peer is given a grace period and then treated as suspect —
		// the FD contract only promises *eventual* suspicion of crashed
		// processes.
		st, ok := p.mon.StatusOf(p.names[c], now)
		suspected := ok && st >= registry.StatusSuspected
		if !suspected && st == registry.StatusUnknown &&
			now.Sub(p.waitingSince) > 20*p.hbInterval {
			suspected = true
		}
		if suspected {
			p.send(c, message{Kind: kindNack, Round: p.round})
			p.nextRound()
		}
	}
}

// tryProposeAsCoordinator sends the proposal once a majority of
// estimates (including our own) arrived.
func (p *Process) tryProposeAsCoordinator() {
	if p.proposed || len(p.estimates) < majority(p.n) {
		return
	}
	// Adopt the estimate with the highest timestamp (CT's locking rule).
	best := message{TS: -2}
	ids := make([]int, 0, len(p.estimates))
	for id := range p.estimates {
		ids = append(ids, id)
	}
	sort.Ints(ids) // deterministic tie-break
	for _, id := range ids {
		if m := p.estimates[id]; m.TS > best.TS {
			best = m
		}
	}
	p.estimate, p.proposed = best.Value, true
	p.broadcast(message{Kind: kindPropose, Round: p.round, Value: p.estimate})
	// The coordinator adopts and acks its own proposal.
	p.ts = p.round
	p.acks[p.id] = true
}

// tryDecideAsCoordinator decides once a majority acked round r.
func (p *Process) tryDecideAsCoordinator(r int) {
	if p.decided || r != p.round || !p.proposed {
		return
	}
	count := 0
	for range p.acks {
		count++
	}
	if count >= majority(p.n) {
		v := p.estimate
		p.decide(v)
		p.broadcast(message{Kind: kindDecide, Round: r, Value: v})
		return
	}
	// A majority of nacks means this round is lost; move on.
	if len(p.nacks) >= majority(p.n) {
		p.nextRound()
	}
}

func (p *Process) decide(v string) {
	if p.decided {
		return
	}
	p.decided = true
	p.decision = v
	p.ph = phaseDone
	// Propagate once so non-coordinators' decisions spread too.
	p.broadcast(message{Kind: kindDecide, Round: p.round, Value: v})
}

func (p *Process) nextRound() { p.advanceTo(p.round + 1) }

func (p *Process) advanceTo(r int) {
	if r <= p.round {
		return
	}
	p.round = r
	p.ph = phaseEstimate
	p.estimates = make(map[int]message)
	p.acks = make(map[int]bool)
	p.nacks = make(map[int]bool)
	p.proposed = false
}

// Decided reports a process's decision.
func (p *Process) Decided() (string, bool) { return p.decision, p.decided }

// Round returns the process's current round (diagnostics).
func (p *Process) Round() int { return p.round }

// Run drives the cluster until every correct process has decided or
// maxTime elapses. It returns true when all correct processes decided.
func (c *Cluster) Run(maxTime clock.Duration) bool {
	const step = 5 * clock.Millisecond
	hbEvery := c.Procs[0].hbInterval
	nextHB := c.Clk.Now()
	deadline := c.Clk.Now().Add(maxTime)
	for c.Clk.Now().Before(deadline) {
		now := c.Clk.Now()
		if !now.Before(nextHB) {
			for _, p := range c.Procs {
				p.emitHeartbeat(now)
			}
			nextHB = now.Add(hbEvery)
		}
		c.Clk.Advance(step)
		done := true
		for _, p := range c.Procs {
			p.pump(c.Clk.Now())
			if !p.crashed && !p.decided {
				done = false
			}
		}
		if done {
			return true
		}
	}
	return false
}

// Agreement verifies that no two decided processes decided differently;
// it returns the decided value (empty if none decided).
func (c *Cluster) Agreement() (string, error) {
	var v string
	for _, p := range c.Procs {
		if d, ok := p.Decided(); ok {
			if v == "" {
				v = d
			} else if v != d {
				return "", fmt.Errorf("consensus: agreement violated: %q vs %q", v, d)
			}
		}
	}
	return v, nil
}
